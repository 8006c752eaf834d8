"""The package's public names and what each entry point imports.

``import booltermorders`` resolves its names on first use, and each ``bto``
subcommand imports only its own layers.  Module sets are read in a fresh
interpreter, since this test process has every layer loaded already.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import booltermorders
from booltermorders.catalog import noncoherent_five
from booltermorders.core import serialize_order

SRC = Path(booltermorders.__file__).parents[1]

HOME = {
    "core": [
        "DisjointPair", "OrderError", "ParseError", "TermOrder", "canonicalize",
        "is_valid", "parse_order", "serialize_order", "validate",
    ],
    "enumeration": ["count_orders", "enumerate_orders"],
    "coherence": [
        "Certificate", "find_weight", "is_coherent", "noncoherence_certificate",
        "order_from_weight", "verify_certificate",
    ],
    "flips": ["flip", "flip_graph", "flippable_pairs", "lex_product", "primitive_pairs"],
    "arrangement": ["char_poly", "region_count"],
    "omatroid": ["Signature", "check_localization", "check_mu_conditions", "mu_from_order"],
    "baues": ["PartialTermOrder", "coherent_above_only_trivial", "refines"],
}

LAYERS = ["core", "lp", "coherence", "enumeration", "flips", "arrangement", "omatroid", "baues"]

# runs its argument, then prints the loaded booltermorders modules as the last line
LOADED = (
    "import sys\n"
    "exec(sys.argv[1])\n"
    "print(*sorted(m.removeprefix('booltermorders.') for m in sys.modules\n"
    "              if m.split('.')[0] == 'booltermorders'))\n"
)


def loaded_after(code, *argv):
    out = subprocess.run(
        [sys.executable, "-c", LOADED, code, *argv],
        capture_output=True, text=True, cwd=SRC, timeout=120,
    )
    assert "Traceback" not in out.stderr, out.stderr
    return set(out.stdout.splitlines()[-1].split())


def test_all_is_pinned_and_each_name_is_its_home_object():
    assert booltermorders.__all__ == sorted(n for names in HOME.values() for n in names)
    assert len(booltermorders.__all__) == 31
    for module, names in HOME.items():
        home = importlib.import_module(f"booltermorders.{module}")
        for name in names:
            assert getattr(booltermorders, name) is getattr(home, name), name


def test_dir_lists_every_name_and_layer():
    listed = dir(booltermorders)
    assert set(booltermorders.__all__) <= set(listed)
    assert set(LAYERS) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        booltermorders.no_such_name


def test_bare_import_resolves_layers_and_star_import():
    code = (
        "import booltermorders\n"
        f"for name in {LAYERS!r}:\n"
        "    assert getattr(booltermorders, name).__name__ == 'booltermorders.' + name\n"
        "scope = {}\n"
        "exec('from booltermorders import *', scope)\n"
        "assert sorted(set(scope) - {'__builtins__'}) == booltermorders.__all__\n"
    )
    assert loaded_after(code) >= {"booltermorders", *LAYERS}


def test_bare_import_loads_only_the_package():
    assert loaded_after("import booltermorders") == {"booltermorders"}


def test_cli_import_loads_only_core():
    assert loaded_after("import booltermorders.cli") == {"booltermorders", "cli", "core"}


def test_baues_import_loads_only_core():
    assert loaded_after("import booltermorders.baues") == {"booltermorders", "core", "baues"}


# without ``site`` (-S), which may import typing or pathlib itself through a .pth hook
FOOTPRINT = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import booltermorders.cli, booltermorders.coherence\n"
    "print('fractions' in sys.modules)\n"
    f"for layer in {[*LAYERS, 'catalog']!r}:\n"
    "    __import__('booltermorders.' + layer)\n"
    "print(*sorted({'dataclasses', 'inspect', 'pathlib', 'typing'} & set(sys.modules)))\n"
)


def test_import_footprint_has_no_dataclasses_inspect_or_typing():
    out = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["False", ""]


@pytest.fixture(scope="module")
def order_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("orders")
    (folder / "nc5.bto").write_text(serialize_order(noncoherent_five()))
    (folder / "nc5.cert").write_text("pair: 4 < 1,2 x1\n")
    return folder


# the layers each subcommand adds to cli and core
SUBCOMMAND_LAYERS = {
    "charpoly --n 2": {"arrangement"},
    "regions --n 2": {"arrangement"},
    "enumerate --n 3 --count-only": {"enumeration"},
    "enumerate --n 3": {"enumeration"},
    "enumerate --n 3 --coherent-only --count-only": {"enumeration", "coherence", "lp"},
    "coherence nc5.bto": {"coherence", "lp"},
    "certify nc5.bto --cert nc5.cert": {"coherence", "lp"},
    "realize --w 1,2,4": {"coherence", "lp"},
    "flips nc5.bto": {"flips"},
    "flip nc5.bto --pair 4<1,2": {"flips"},
    "flipgraph --n 3": {"flips", "enumeration"},
    "validate nc5.bto": {"baues"},
    "baues nc5.bto": {"baues", "coherence", "lp"},
    "localize nc5.bto": {"baues", "omatroid"},
}


@pytest.mark.parametrize("argv", SUBCOMMAND_LAYERS)
def test_subcommand_loads_only_its_layers(order_files, argv):
    code = "from booltermorders.cli import main\nmain(sys.argv[2:])"
    args = [str(order_files / a) if a.startswith("nc5.") else a for a in argv.split()]
    layers = SUBCOMMAND_LAYERS[argv]
    assert loaded_after(code, *args) == {"booltermorders", "cli", "core", *layers}
