"""Reaction groups: composition order, orbits and characteristic equations."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancenets.errors import BoundExceededError, GroupMismatchError, ValidationError
from balancenets.groups import (
    ReactionGroup,
    StateSet,
    cyclic_group,
    group_to_json,
    load_group,
    orbit_count,
    pair_orbit_count,
    sign_group,
    solve_characteristic,
    solve_characteristic_pair,
    symmetric_group,
)


def test_sign_group_basics():
    g2 = sign_group()
    assert len(g2) == 2
    e, g = g2.element("e"), g2.element("g")
    assert e.is_identity
    assert not g.is_identity
    assert g * g == e
    assert g.inverse() == g
    # g flips the two states.
    assert g(0) == 1 and g(1) == 0


def test_composition_applies_right_factor_first():
    s3 = symmetric_group(3)
    g = s3.element_by_perm((1, 2, 0))
    h = s3.element_by_perm((1, 0, 2))
    composed = g * h
    for x in range(3):
        assert composed(x) == g(h(x))


def test_element_lookup_forms_agree():
    c4 = cyclic_group(4)
    by_name = c4.element("r1")
    by_index = c4.element(1)
    assert by_name == by_index
    assert c4.element(by_name) is by_name
    with pytest.raises(ValidationError):
        c4.element("missing")
    # A bool is not an element index.
    with pytest.raises(ValidationError, match="cannot interpret True"):
        c4.element(True)
    with pytest.raises(ValidationError):
        c4.element_by_perm((0, 2, 1, 3))


def test_elements_from_different_groups_do_not_mix():
    a = sign_group()
    b = sign_group()
    with pytest.raises(GroupMismatchError):
        a.identity * b.identity


@pytest.mark.parametrize("group", [sign_group(), cyclic_group(4), symmetric_group(3)])
def test_every_lookup_returns_the_groups_one_element(group):
    members = list(group)
    assert len(set(map(id, members))) == len(group)
    assert group.identity is members[group.identity_index]
    for i, g in enumerate(members):
        assert group.element(g.name) is g
        assert group.element(i) is g
        assert group.element(g) is g
        assert group.element_by_perm(g.perm) is g
        assert g.inverse() is members[group.inverse_index[i]]
        for j, h in enumerate(members):
            assert g * h is members[group.table[i][j]]
    assert all(a is b for a, b in zip(group, members))


@pytest.mark.parametrize(
    "group", [sign_group(), cyclic_group(5), symmetric_group(3)], ids=["sign", "C5", "S3"]
)
def test_the_product_reads_the_table_without_compose(group):
    """g * h is the permutation applying h first and then g, found by one
    table lookup; a foreign factor on either side raises."""
    members = list(group)
    for g in members:
        for h in members:
            gh = g * h
            assert all(gh(x) == g(h(x)) for x in range(len(group.states)))
    foreign = sign_group().identity
    for g in members:
        for left, right in ((g, foreign), (foreign, g)):
            with pytest.raises(GroupMismatchError):
                left * right


def test_elements_of_equal_groups_never_compare_equal():
    a, b = symmetric_group(3), symmetric_group(3)
    for g, h in zip(a, b):
        assert g.perm == h.perm
        assert g != h
        with pytest.raises(GroupMismatchError):
            g * h
        with pytest.raises(GroupMismatchError):
            b.element(g)
    assert len({*a, *b}) == 2 * len(a)


def test_orbit_counts_match_cycle_structure():
    g2 = sign_group()
    assert orbit_count(g2.element("e")) == 2
    assert orbit_count(g2.element("g")) == 1
    s3 = symmetric_group(3)
    three_cycle = s3.element_by_perm((1, 2, 0))
    transposition = s3.element_by_perm((1, 0, 2))
    assert orbit_count(three_cycle) == 1
    assert orbit_count(transposition) == 2


def _pair_orbits_brute(v, w, k):
    # Union-find over the k*k pairs moved by (x, y) -> (v(y), w(x)).
    parent = list(range(k * k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x, y in itertools.product(range(k), range(k)):
        src = x * k + y
        dst = v(y) * k + w(x)
        ra, rb = find(src), find(dst)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(k * k)})


@pytest.mark.parametrize("names", [("e", "e"), ("e", "g"), ("g", "e"), ("g", "g")])
def test_pair_orbit_count_against_union_find(names):
    g2 = sign_group()
    v, w = g2.element(names[0]), g2.element(names[1])
    assert pair_orbit_count(v, w) == _pair_orbits_brute(v, w, 2)


def test_pair_orbit_count_on_symmetric_group():
    s3 = symmetric_group(3)
    for v, w in itertools.product(list(s3), repeat=2):
        assert pair_orbit_count(v, w) == _pair_orbits_brute(v, w, 3)


def test_solve_characteristic_orders_by_orbit_count():
    g2 = sign_group()
    solutions = solve_characteristic(g2, g2.identity)
    assert [s.name for s in solutions] == ["e", "g"]
    # No square root of g exists in the two-element group.
    assert solve_characteristic(g2, g2.element("g")) == []


def _characteristic_pair_oracle(group, a_i, a_j):
    """Every (v, w) of the group squared, kept when v*w == a_i and w*v == a_j."""
    hits = [
        (v, w)
        for v in group
        for w in group
        if (v * w) == a_i and (w * v) == a_j
    ]
    hits.sort(key=lambda vw: (-pair_orbit_count(*vw), vw[0].index, vw[1].index))
    return hits


@pytest.mark.parametrize(
    "group",
    [sign_group(), cyclic_group(4), symmetric_group(3), symmetric_group(4)],
    ids=["sign", "C4", "S3", "S4"],
)
def test_solve_characteristic_pair_matches_the_square_search(group):
    for a_i, a_j in itertools.product(group, repeat=2):
        assert solve_characteristic_pair(group, a_i, a_j) == (
            _characteristic_pair_oracle(group, a_i, a_j)
        )


def test_solve_characteristic_pair_brute_force():
    g2 = sign_group()
    e, g = g2.element("e"), g2.element("g")
    pairs = solve_characteristic_pair(g2, e, e)
    expected = {
        (v.name, w.name)
        for v, w in itertools.product([e, g], repeat=2)
        if v * w == e and w * v == e
    }
    assert {(v.name, w.name) for v, w in pairs} == expected
    best_v, best_w = pairs[0]
    assert pair_orbit_count(best_v, best_w) == max(
        pair_orbit_count(v, w) for v, w in pairs
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_group_axioms_hold_in_s3(i, j, k):
    s3 = symmetric_group(3)
    g, h, f = s3.element(i), s3.element(j), s3.element(k)
    assert (g * h) * f == g * (h * f)
    assert g * s3.identity == g
    assert s3.identity * g == g
    assert g * g.inverse() == s3.identity
    assert orbit_count(g.inverse()) == orbit_count(g)


def test_json_round_trip():
    s3 = symmetric_group(3)
    loaded = load_group(group_to_json(s3))
    assert len(loaded) == 6
    assert [el.name for el in loaded] == [el.name for el in s3]
    assert loaded.element("e").is_identity


def test_load_group_rejects_bad_payloads():
    with pytest.raises(ValidationError):
        load_group({"states": [0, 1], "elements": []})
    with pytest.raises(ValidationError):
        load_group(
            {
                "states": [0, 1],
                "elements": [{"name": "e", "perm": [0, 0]}],
                "identity": "e",
            }
        )
    with pytest.raises(ValidationError):
        load_group(
            {
                "states": [0, 1],
                "elements": [
                    {"name": "e", "perm": [0, 1]},
                    {"name": "g", "perm": [1, 0]},
                ],
                "identity": "g",
            }
        )
    # Element names and the identity are strings, never numbers or bools.
    two = [{"name": "e", "perm": [0, 1]}, {"name": "g", "perm": [1, 0]}]
    for name in (True, 1):
        elements = [two[0], {**two[1], "name": name}]
        with pytest.raises(ValidationError, match=f"element #1 'name' must be a string, got {name}"):
            load_group({"states": [0, 1], "elements": elements, "identity": "e"})
    with pytest.raises(ValidationError, match="group 'identity' must be an element name, got 0"):
        load_group({"states": [0, 1], "elements": two, "identity": 0})
    # Perm entries are integers, never bools or floats that sort like them.
    for perm in ([True, False], [1.0, 0]):
        elements = [two[0], {**two[1], "perm": perm}]
        with pytest.raises(ValidationError, match="element 'g': perm must be a bijection"):
            load_group({"states": [0, 1], "elements": elements, "identity": "e"})


def test_state_set_rejects_duplicates():
    with pytest.raises(ValidationError):
        StateSet((1, 1))
    # Equal numbers stay one label.
    with pytest.raises(ValidationError):
        StateSet((1, 1.0))


def test_state_labels_that_differ_only_by_type_are_distinct():
    states = StateSet((1, True))
    assert states.index(1) == 0
    assert states.index(True) == 1
    assert states.index(1.0) == 0
    with pytest.raises(ValidationError):
        states.index(False)
    group = load_group(
        {
            "states": [1, True],
            "elements": [{"name": "e", "perm": [0, 1]}, {"name": "g", "perm": [1, 0]}],
            "identity": "e",
        }
    )
    assert group.states.labels == (1, True)
    assert group.state_labels((1, 0))[0] is True


def test_group_requires_closure():
    # A set lacking the composite of its members is not a group.
    with pytest.raises(ValidationError):
        ReactionGroup(StateSet((0, 1, 2)), [(0, 1, 2), (1, 2, 0)])


def test_group_order_past_the_bound_is_refused():
    with pytest.raises(BoundExceededError, match="group order 5040 exceeds the bound 720") as info:
        symmetric_group(7)
    assert info.value.code == "bound-exceeded"


@pytest.mark.parametrize(
    "build, n, order",
    [
        (cyclic_group, 721, "721"),
        (symmetric_group, 9, "362880"),
        (symmetric_group, 20, "2432902008176640000"),
        (symmetric_group, 21, "21!"),
        (symmetric_group, 10 ** 9, "1000000000!"),
    ],
)
def test_stock_groups_refuse_their_order_before_enumerating(monkeypatch, build, n, order):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("a refused group was enumerated")

    monkeypatch.setattr(itertools, "permutations", enumerate_nothing)
    monkeypatch.setattr(ReactionGroup, "__init__", enumerate_nothing)
    tracemalloc.start()
    try:
        message = rf"^group order {order} exceeds the bound 720$"
        with pytest.raises(BoundExceededError, match=message):
            build(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # cyclic_group(721) would build 721 permutations of 721 states.
    assert peak < 64 * 1024

