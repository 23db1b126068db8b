"""What ``import planeint`` and each CLI subcommand load.

The package resolves its public names on first access, and each CLI handler
imports the modules it uses.  This process has imported every submodule by
now, so each load check runs in a fresh interpreter.
"""

import ast
import contextlib
import importlib
import io
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import planeint
from planeint.cli import build_parser, main

SRC = Path(planeint.__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))


def child(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with every warning an error; its output stays bytes, CRLF and all."""
    return subprocess.run(
        [sys.executable, "-W", "error", *args], env=ENV, cwd=str(SRC.parent), capture_output=True, timeout=60,
    )


def probe(statement: str, *argv: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run one statement in a fresh interpreter; also return the package modules it loaded."""
    proc = child(
        "-c",
        "import sys\n"
        "try:\n"
        f"    {statement}\n"
        "finally:\n"
        "    sys.stderr.write('\\n' + ' '.join(m for m in sys.modules if m.split('.')[0] == 'planeint'))\n",
        *argv,
    )
    return proc, set(proc.stderr.decode().splitlines()[-1].split())


# ``python -m planeint.cli``: runpy imports the package, then runs its __main__
RUN_CLI = "import runpy; runpy.run_module('planeint.cli', run_name='__main__', alter_sys=True)"


class TestWhatLoads:
    def test_import_loads_no_submodule(self):
        proc, loaded = probe("import planeint")
        assert proc.returncode == 0 and loaded == {"planeint"}, proc.stderr

    def test_classify_loads_no_float_oracle_or_quadratic_layer(self):
        proc, loaded = probe(
            "import planeint; planeint.classify(planeint.elliptic(7, 2)); "
            "print(*sorted({'fractions', 'json', 'decimal'} & set(sys.modules)))"
        )
        assert proc.returncode == 0, proc.stderr
        assert loaded == {"planeint", "planeint.core", "planeint.integers", "planeint.classification"}
        assert proc.stdout == b"\n"  # none of them

    def test_cli_norm_loads_only_core(self):
        # the CLI's front and the norm command's module, and of the library only core
        proc, loaded = probe(RUN_CLI, "norm", "12-5k")
        assert (proc.returncode, proc.stdout) == (0, b"eta 144\neta_plus 144\ntrace 24\n"), proc.stderr
        assert loaded == {"planeint", "planeint.core", "planeint.cli", "planeint.cli.norm"}

    def test_lazy_names_show_in_importtime(self):
        # the package loads a submodule by the import statement's path, which -X importtime reports
        proc = child("-X", "importtime", "-c", "import planeint; planeint.classify; planeint.oracle")
        assert proc.returncode == 0, proc.stderr
        reported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()}
        assert {"planeint.classification", "planeint.oracle"} <= reported, proc.stderr

    def test_cli_ideal_loads_no_integer_kernel(self):
        # decompose and ideal_contains are gcds and divisibility: no primality, no factoring
        proc, loaded = probe(RUN_CLI, "ideal", "6+4j", "10+2j", "--contains", "4+2j")
        assert proc.returncode == 0, proc.stderr
        assert loaded == {"planeint", "planeint.core", "planeint.euclid", "planeint.cli", "planeint.cli.ideal"}


# argv of the benchmark's cli mix whose handlers need no Classification, the
# package's one dataclass
NO_DATACLASS_ARGV = (
    "norm 12-5k",
    "divmod 27+5j 4+1j",
    "ideal 6+4j 10+2j --contains 4+2j",
    "oracle divisors 12+6k",
    "dts 200",
    "classify-poly 1 -3 2",
)


@pytest.mark.parametrize("argv", NO_DATACLASS_ARGV)
def test_cli_child_loads_no_dataclasses(argv):
    """``dataclasses`` imports ``inspect`` (and ``ast``, ``dis``, ``tokenize``): a fixed cost of every child."""
    proc = child(
        "-c",
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('planeint.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    sys.stderr.write('\\n' + ' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))))\n",
        *argv.split(),
    )
    assert proc.returncode == 0 and proc.stderr == b"\n", proc.stderr


def package_sources() -> list[tuple[str, Path]]:
    """Every source file of the package, subpackages included, named relative to it (``cli/classify.py``)."""
    root = SRC / "planeint"
    return [(path.relative_to(root).as_posix(), path) for path in sorted(root.rglob("*.py"))]


def test_only_classification_imports_dataclasses():
    importers = set()
    for name, path in package_sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                importers.add(name)
    assert importers == {"classification.py"}


def test_ring_dispatch_reads_core_globals():
    """Reading ``RingKind.ELLIPTIC`` goes through the enum metaclass, about 10x a global lookup.

    ``core`` binds the members once, as ``_ELLIPTIC, _HYPERBOLIC, _PARABOLIC =
    RingKind``, and every module dispatches on those globals.
    """
    reads = [
        (name, node.lineno)
        for name, path in package_sources()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "RingKind"
        and node.attr in {"ELLIPTIC", "HYPERBOLIC", "PARABOLIC"}
    ]
    assert reads == []


class TestPackageNames:
    def test_functions_survive_every_submodule_import(self):
        # a submodule named like a function would replace it on the package when it loads
        proc = child(
            "-c",
            "import importlib, pkgutil, planeint\n"
            "before = planeint.factor, planeint.classify\n"
            "for m in pkgutil.iter_modules(planeint.__path__):\n"
            "    importlib.import_module('planeint.' + m.name)\n"
            "from planeint.classification import classify\n"
            "from planeint.factorization import factor\n"
            "assert (planeint.factor, planeint.classify) == before == (factor, classify)\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_dir_lists_all(self):
        assert set(planeint.__all__) <= set(dir(planeint))

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from planeint import *", namespace)
        assert all(namespace[name] is getattr(planeint, name) for name in planeint.__all__)
        # and in a fresh interpreter, where each name is resolved for the first time
        proc = child("-c", "from planeint import *")
        assert proc.returncode == 0, proc.stderr

    def test_submodule_attribute_is_the_module(self, monkeypatch):
        assert isinstance(planeint.oracle, types.ModuleType) and planeint.oracle.__name__ == "planeint.oracle"
        monkeypatch.delattr(planeint, "oracle")  # as before its first import: read through __getattr__
        assert planeint.oracle is sys.modules["planeint.oracle"]
        proc = child("-c", "import planeint; print(planeint.oracle.__name__, planeint.oracle.Verdict.__name__)")
        assert (proc.returncode, proc.stdout) == (0, b"planeint.oracle Verdict\n"), proc.stderr

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="'nope'"):
            planeint.nope  # noqa: B018
        assert not hasattr(planeint, "nope")

    @pytest.mark.parametrize("module", sorted(planeint._SOURCES))
    def test_sources_match_submodule(self, module):
        """The package's table agrees with the submodule's ``__all__``, or else with what it defines."""
        mod = importlib.import_module(f"planeint.{module}")
        if hasattr(mod, "__all__"):
            # analytic's float tolerances are not package-level names
            names = [n for n in mod.__all__ if n not in {"ABS_TOL", "REL_TOL", "floats_close"}]
        else:
            names = sorted(
                n for n, v in vars(mod).items()
                if not n.startswith("_") and getattr(v, "__module__", None) == mod.__name__
            )
        assert planeint._SOURCES[module] == tuple(names)


# one argv per subcommand; each child loads only what its handler imports
SWEEP = (
    "classify 7+2i",
    "factor 30+8i",
    "divmod 27+5j 4+1j",
    "norm 12-5k",
    "dts 8",
    "ideal 6+4j 10+2j --contains 4+2j",
    "oracle divisors 12+6k",
    "classify-poly 1 -3 2",
    "exp 0 3 --ring k",
    "pow 5 3 2 --ring j",
    "table --ring j --bound 3",
)


@pytest.mark.parametrize("flags", ["", "--json "])
@pytest.mark.parametrize("argv", SWEEP)
def test_fresh_child_matches_main(flags, argv):
    """A handler that misses one of its own imports fails here, not only in-process."""
    argv = (flags + argv).split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    proc = child("-m", "planeint.cli", *argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == out.getvalue().encode()


@pytest.mark.parametrize("argv", SWEEP)
def test_cli_child_loads_only_its_command_module(argv):
    """A child compiles the CLI's front and one command module, never another command's."""
    module = build_parser().parse_args(argv.split()).module
    proc, loaded = probe(RUN_CLI, *argv.split())
    assert proc.returncode == 0, proc.stderr
    assert {m for m in loaded if m.startswith("planeint.cli")} == {"planeint.cli", f"planeint.cli.{module}"}
