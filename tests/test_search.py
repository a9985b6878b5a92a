from hypothesis import given, settings
from hypothesis import strategies as st

from wftas.search import components, explore, path

# A small labelled graph: two starts, a shared successor reached from
# both, a longer and a shorter way to "e", and a cycle back to a start.
GRAPH = {
    "a": [("ab", "b"), ("ac", "c")],
    "x": [("xc", "c"), ("xd", "d")],
    "b": [("be", "b2")],
    "b2": [("b2e", "e")],
    "c": [("ce", "e"), ("ca", "a")],
    "d": [],
    "e": [("ee", "e")],
    "z": [("za", "a")],  # not reachable
}


def test_explore_breadth_first_order_and_parents():
    parents = explore(["a", "x"], GRAPH.__getitem__)
    assert list(parents) == ["a", "x", "b", "c", "d", "b2", "e"]
    assert parents == {
        "a": None,
        "x": None,
        "b": ("a", "ab"),
        "c": ("a", "ac"),  # first reached from a, not from x
        "d": ("x", "xd"),
        "b2": ("b", "be"),
        "e": ("c", "ce"),  # two edges via c, not three via b
    }
    assert path(parents, "a") == ()
    assert path(parents, "d") == ("xd",)
    assert path(parents, "e") == ("ac", "ce")


def test_explore_takes_any_iterable_of_starts():
    parents = explore((s for s in "ax"), GRAPH.__getitem__)
    assert set(parents) == {"a", "x", "b", "c", "d", "b2", "e"}
    assert explore([], GRAPH.__getitem__) == {}
    # A repeated start is one state.
    assert list(explore(["d", "d"], GRAPH.__getitem__)) == ["d"]


def test_components_chain_self_loop_and_two_cycle():
    # 0 -> 1 -> 2: three singletons, sinks first.
    assert components([[1], [2], []]) == [[2], [1], [0]]
    # A self-loop is its own component.
    assert components([[0, 1], []]) == [[1], [0]]
    # 0 <-> 1 -> 2, with ids listed sorted.
    assert components([[1], [0, 2], []]) == [[2], [0, 1]]
    assert components([[2], [0], [1]]) == [[0, 1, 2]]


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    return [draw(st.lists(st.integers(0, n - 1), max_size=4)) for _ in range(n)]


def closure(succ):
    """reach[i]: the ids reachable from i in zero or more steps, by
    transitive closure."""
    n = len(succ)
    reach = [{i} | set(succ[i]) for i in range(n)]
    for k in range(n):
        for i in range(n):
            if k in reach[i]:
                reach[i] |= reach[k]
    return reach


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data())
def test_search_matches_brute_force(succ, data):
    n = len(succ)
    reach = closure(succ)
    starts = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    parents = explore(starts, lambda i: [(None, j) for j in succ[i]])
    assert set(parents) == set().union(*(reach[s] for s in starts))
    # Each parent chain is a path of the graph back to a start, of the
    # shortest length.
    depth = {s: 0 for s in starts}
    for i in parents:
        if parents[i] is not None:
            p, _ = parents[i]
            assert i in succ[p]
            depth[i] = depth[p] + 1
        assert len(path(parents, i)) == depth[i]
    assert all(depth[j] <= depth[i] + 1 for i in parents for j in succ[i])

    comps = components(succ)
    where = {i: k for k, comp in enumerate(comps) for i in comp}
    assert sorted(where) == list(range(n)) and sum(map(len, comps)) == n
    assert all(comp == sorted(comp) for comp in comps)
    for i in range(n):
        for j in range(n):
            # Same component exactly when mutually reachable.
            assert (where[i] == where[j]) == (j in reach[i] and i in reach[j])
        # Sinks first: every edge stays in its component or goes back.
        assert all(where[j] <= where[i] for j in succ[i])
