"""pyproject.toml declares numpy>=1.24, so no code in the repository may use
what NumPy added in 2.0. The installed NumPy may be newer, and then a passing
test run does not show that the floor holds: this test reads the source."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# ndarray attributes and numpy / numpy.linalg functions new in NumPy 2.x
NEW_ARRAY_ATTRS = {"mT", "device", "to_device"}
NEW_FUNCTIONS = {
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype",
    "bitwise_count", "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
    "concat", "cumulative_prod", "cumulative_sum", "isdtype", "matrix_norm",
    "matrix_transpose", "matvec", "permute_dims", "pow", "unique_all",
    "unique_counts", "unique_inverse", "unique_values", "unstack", "vecdot",
    "vecmat", "vector_norm",
}


def numpy_2_names(source: str) -> list[str]:
    """The NumPy-2-only attributes ``source`` reads, as written."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        owner = ast.unparse(node.value)
        if node.attr in NEW_ARRAY_ATTRS or (
                owner in ("np", "numpy", "np.linalg", "numpy.linalg")
                and node.attr in NEW_FUNCTIONS):
            found.append(f"{owner}.{node.attr}")
    return found


def test_numpy_2_names_are_found():
    source = "x.mT @ y\nnp.concat([a, b])\nnp.linalg.vector_norm(a)\nT.concat_cols(a)\n"
    assert numpy_2_names(source) == ["x.mT", "np.concat", "np.linalg.vector_norm"]


def test_no_numpy_2_only_names():
    found = [f"{path.relative_to(ROOT)}: {name}"
             for folder in ("src", "tests", "demos", "tools", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for name in numpy_2_names(path.read_text())]
    assert found == []
