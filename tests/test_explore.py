from piworkbench.explore import Exploration, explore, unlabelled


def _counting(step):
    """`step` as a successor function that records the states it expands."""
    asked = []

    def successors(state):
        asked.append(state)
        return step(state)

    return successors, asked


def test_bfs_order_distances_edges_and_horizon():
    # n -> 2n, 2n + 1 over 1..; every state below the bound is expanded once
    successors, asked = _counting(lambda n: [("l", 2 * n), ("r", 2 * n + 1)])
    ex = explore(1, successors, 2)
    assert ex.states == [1, 2, 3, 4, 5, 6, 7]
    assert ex.dist == [0, 1, 1, 2, 2, 2, 2]
    assert ex.out[0] == [("l", 1), ("r", 2)]
    assert ex.out[3:] == [[], [], [], []]
    assert ex.horizon == [3, 4, 5, 6]
    assert asked == [1, 2, 3]  # the last level is never expanded
    assert ex.index == {s: i for i, s in enumerate(ex.states)}


def test_shared_targets_keep_their_first_distance():
    graph = {"a": "bc", "b": "ca", "c": "d", "d": ""}
    ex = explore("a", unlabelled(lambda s: graph[s]), 5)
    assert ex.states == ["a", "b", "c", "d"]
    assert ex.dist == [0, 1, 1, 2]
    assert ex.out[1] == [(None, 2), (None, 0)]
    assert ex.horizon == []


def test_unexpandable_states_join_the_horizon():
    ex = explore(0, lambda n: None if n == 1 else [(None, n + 1), (None, n + 2)], 2)
    assert ex.states == [0, 1, 2, 3, 4]
    assert ex.out[1] == []
    assert ex.horizon == [1, 3, 4]


def test_grow_one_level_at_a_time():
    ex = Exploration((0,), unlabelled(lambda n: [n + 1]), 2)
    sizes = []
    while ex.grow():
        sizes.append(len(ex.states))
    assert sizes == [2, 3]
    assert ex.horizon == [2]
    assert not ex.grow()
    assert explore(0, unlabelled(lambda n: [n + 1]), 0).horizon == [0]


def test_several_roots_all_start_at_distance_zero():
    # a state's distance is the minimum over the roots; a repeated root and a
    # root another root reaches are numbered once, at distance 0
    graph = {"a": "bc", "b": "d", "c": "e", "d": "", "e": ""}
    successors, asked = _counting(unlabelled(lambda s: graph[s]))
    ex = Exploration(("c", "a", "c", "b"), successors, 1)
    while ex.grow():
        pass
    assert ex.states == ["c", "a", "b", "e", "d"]
    assert ex.dist == [0, 0, 0, 1, 1]
    assert ex.out[1] == [(None, 2), (None, 0)]
    assert asked == ["c", "a", "b"]
    assert ex.horizon == [3, 4]
    assert Exploration((), successors, 3).grow() is False
