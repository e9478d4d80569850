"""Tests for the package namespace: ``import concorso`` loads no submodule,
each public name imports its defining module on first use, and neither
``concorso gen`` nor ``concorso report`` loads scipy."""

import importlib
import subprocess
import sys

import pytest

import concorso


def _fresh(code):
    """stdout of ``code`` run after ``import concorso`` in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", "import sys, concorso\n" + code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_submodule_nor_numpy():
    loaded = _fresh("print(sorted(m for m in sys.modules if m.startswith('concorso.')"
                    " or m.split('.')[0] in ('numpy', 'scipy')))")
    assert loaded == "[]"


def test_loading_and_scoring_need_no_numpy():
    loaded = _fresh("concorso.load_corpus, concorso.score_corpus\n"
                    "print(sorted(m for m in sys.modules if m.startswith('concorso.')),"
                    " 'numpy' in sys.modules)")
    assert loaded == "['concorso.corpus', 'concorso.errors', 'concorso.scoring'] False"


def test_gen_loads_no_scipy(tmp_path):
    # gen computes no p-value; scipy.special alone adds about 26 MB to its peak
    argv = ["gen", "--out-dir", str(tmp_path), "--seed", "1", "--n-sds", "2",
            "--researchers-per-sds", "14", "--competitions-per-sds", "2"]
    loaded = _fresh(f"import concorso.cli\nassert concorso.cli.main({argv!r}) == 0\n"
                    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded.splitlines()[-1] == "[]"


def test_report_loads_no_scipy(tmp_path):
    # report's p-values come from stats.py's own tail functions; scipy is a
    # test oracle only
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    runs = [["gen", "--out-dir", str(corpus), "--seed", "1", "--w-cp", "6",
             "--noise-sd", "8"],
            ["report", "--input-dir", str(corpus), "--out-dir", str(out)]]
    loaded = _fresh("import concorso.cli\n"
                    f"assert [concorso.cli.main(argv) for argv in {runs!r}] == [0, 0]\n"
                    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded.splitlines()[-1] == "[]"
    assert (out / "regression.json").is_file()


def test_star_import_binds_every_public_name():
    missing = _fresh("ns = {}\nexec('from concorso import *', ns)\n"
                     "print(sorted(set(concorso.__all__) - ns.keys()))")
    assert missing == "[]"


def test_public_names_are_the_defining_modules_objects():
    for name in concorso.__all__:
        if name == "__version__":
            continue
        value = getattr(concorso, name)
        assert value.__module__.startswith("concorso.")
        assert value is getattr(importlib.import_module(value.__module__), name)
        assert vars(concorso)[name] is value  # kept: later reads skip __getattr__


def test_submodules_are_attributes_on_first_read():
    loaded = _fresh("print(concorso.corpus.CorpusPaths.__module__,"
                    " concorso.stats.pearson is sys.modules['concorso.stats'].pearson)")
    assert loaded == "concorso.corpus True"


def test_dir_lists_every_public_name_and_submodule():
    assert set(concorso.__all__) | set(concorso._SOURCES) <= set(dir(concorso))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        concorso.no_such_name
    assert not hasattr(concorso, "CorpusPaths")  # defined in a submodule, not public
