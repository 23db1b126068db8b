"""Exact arithmetic, classification and factorization in the three integer
rings of the plane: Gaussian (θ² = -1), hyperbolic (θ² = +1) and parabolic
(θ² = 0) integers."""

# submodule -> the public names it defines; ``__all__`` is these names, sorted.
# ``import planeint`` loads no submodule: __getattr__ imports one the first
# time one of its names (or the submodule itself, as in ``planeint.oracle``)
# is read.
_SOURCES = {
    "analytic": (
        "OutOfSectorError", "PolarForm", "RealElement", "euler_check", "exp_theta", "polar_decompose",
        "pow_moivre",
    ),
    "classification": ("Classification", "IrreducibleForm", "classify", "is_irreducible", "is_prime"),
    "core": (
        "Element", "KindMismatchError", "NotInvertibleError", "RingError", "RingKind", "WrongRingError",
        "diagonal_coords", "elliptic", "format_element", "from_diagonal_coords", "hyperbolic",
        "inner_product", "lex_less", "norm_data", "normalize_associate", "one", "parabolic", "theta", "zero",
    ),
    "euclid": (
        "DivResult", "DivisorIsZeroDivisorError", "FGIdeal", "IdealDecomposition", "decompose", "div_rem",
        "divides", "ideal_contains",
    ),
    "factorization": (
        "Factorization", "PrimeIntegerReport", "ZeroDivisorFactorizationError", "factor",
        "prime_integer_behavior", "split",
    ),
    "integers": (
        "diff_two_squares", "extended_gcd", "int_factor", "is_prime_int", "sum_two_squares",
        "two_adic_valuation",
    ),
    "oracle": (
        "InfiniteDivisorSetError", "OracleVerdict", "Verdict", "divisors", "oracle_irreducible",
        "oracle_prime",
    ),
    "quadratic": (
        "GeneralParams", "QuadraticPoly", "canonicalize", "classify_quadratic", "general_mul",
        "general_norm_trace",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule behind ``name`` and keep the result as a module global."""
    if name in _SOURCES:
        return _load(name)  # importing binds it in this namespace
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_load(module), name)
    return value


def _load(module: str):
    # __import__ is the import statement's path, which -X importtime reports and
    # importlib.import_module bypasses; given a fromlist, it returns the submodule
    return __import__(f"{__name__}.{module}", fromlist=["*"])


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SOURCES})
