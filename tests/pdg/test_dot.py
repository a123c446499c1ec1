"""Tests for DOT export."""

from repro.bench.suite import program
from repro.compiler import compile_source
from repro.pdg.dot import to_dot

SRC = """
void f() {
    int i;
    i = 1;
    while (i < 10) {
        if (i == 7) { print(1); } else { print(2); }
        i = i + 1;
    }
}
"""


def test_dot_is_syntactically_plausible():
    func = compile_source(SRC).module.functions["f"]
    dot = to_dot(func)
    assert dot.startswith('digraph "f"')
    assert dot.rstrip().endswith("}")
    assert dot.count("{") == dot.count("}")


def test_dot_contains_predicate_and_loop_markers():
    func = compile_source(SRC).module.functions["f"]
    dot = to_dot(func)
    assert "diamond" in dot          # predicate node
    assert "(loop)" in dot           # loop region
    assert '[label="T"]' in dot and '[label="F"]' in dot


def test_dot_without_code_has_no_boxes():
    func = compile_source(SRC).module.functions["f"]
    dot = to_dot(func, include_code=False)
    assert "shape=box" not in dot


def test_dot_with_data_deps_adds_dashed_edges():
    func = compile_source(SRC).module.functions["f"]
    dot = to_dot(func, include_data_deps=True)
    assert "style=dashed" in dot


def test_data_dep_edges_do_not_depend_on_object_addresses():
    # Two deep copies of one module hold their instructions at different
    # addresses; both must render the same text.
    bench = program("livermore")
    prog = compile_source(bench.source(), filename=bench.filename)
    first, second = prog.fresh_module(), prog.fresh_module()
    for name, func in first.functions.items():
        assert to_dot(func, include_data_deps=True) == to_dot(
            second.functions[name], include_data_deps=True
        ), name
