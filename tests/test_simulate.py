"""Path sampling: reproducibility, empirical frequencies, serialization."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from rlogit import core
from rlogit.errors import InvalidPath, StepCapExceeded
from rlogit.generators import bic_dag, random_geometric_network
from rlogit.network import build_network, canonical_json, enumerate_paths
from rlogit.simulate import (
    STEP_CAP_FACTOR,
    ObservationSet,
    generate_observations,
    generate_observations_via_layered,
    load_observations,
    make_observation,
    sample_path,
    save_observations,
)


def spec(*beta):
    return core.UtilitySpec(np.asarray(beta, dtype=float))


def test_deterministic_chain_sampling(chain_net):
    s = spec(-1.0)
    obs = generate_observations(chain_net, s, "o", 5, seed=0)
    assert len(obs) == 5
    for ob in obs.observations:
        assert ob.path == ("o", "a", "b", "d")
        assert ob.attr_sum[0] == pytest.approx(6.0)


def test_generation_reproducible(two_route_net):
    s = spec(-1.0)
    a = generate_observations(two_route_net, s, "o", 200, seed=42)
    b = generate_observations(two_route_net, s, "o", 200, seed=42)
    assert [ob.path for ob in a.observations] == [ob.path for ob in b.observations]
    c = generate_observations(two_route_net, s, "o", 200, seed=43)
    assert [ob.path for ob in a.observations] != [ob.path for ob in c.observations]


def test_two_route_frequencies(two_route_net):
    s = spec(-1.0)
    obs = generate_observations(two_route_net, s, "o", 100_000, seed=1)
    frac_a = np.mean([ob.path[1] == "a" for ob in obs.observations])
    assert frac_a == pytest.approx(0.5, abs=0.01)


def test_sample_frequencies_match_path_probabilities_chi2():
    net = bic_dag(5, 0, 3, np.linspace(-0.6, 0.6, 5).reshape(5, 1))
    s = spec(1.0)
    vf, _ = core.solve_value_linear(net, s)
    paths = [tuple(p) for p in enumerate_paths(net, "n0_0")]
    probs = np.array([math.exp(core.path_log_prob(net, s, vf, list(p))) for p in paths])
    n = 100_000
    obs = generate_observations(net, s, "n0_0", n, seed=9)
    counts = {p: 0 for p in paths}
    for ob in obs.observations:
        counts[ob.path] += 1
    observed = np.array([counts[p] for p in paths])
    _, pvalue = stats.chisquare(observed, probs * n)
    assert pvalue > 0.001


def test_single_draw_sampler(two_route_net):
    s = spec(-1.0)
    vf, _ = core.solve_value_linear(two_route_net, s)
    rng = np.random.Generator(np.random.Philox(5))
    ob = sample_path(two_route_net, s, vf, "o", rng)
    assert ob.path[0] == "o" and ob.path[-1] == "d"


def test_layered_generation_on_cyclic_network(cycle_net):
    s = spec(1.0)
    obs = generate_observations_via_layered(cycle_net, s, "s0", 500, seed=3)
    assert len(obs) == 500
    cap = cycle_net.n_states - 1  # layered unrolling bounds walk length
    for ob in obs.observations:
        core.validate_path(cycle_net, list(ob.path))  # valid in the base net
        assert len(ob.path) - 1 <= cap
        assert ob.path[0] == "s0" and ob.path[-1] == "d"
    # symmetric loops: both exits roughly equally likely
    frac = np.mean([ob.path[1] == "s1" for ob in obs.observations])
    assert abs(frac - 0.5) < 0.1


def test_layered_generation_with_integer_state_ids(cycle_net):
    # the two-loop network with states 0-3 in place of s0, s1, s2, d: the
    # layered walks map back by index, so the draws give the same paths
    ids = {"s0": 0, "s1": 1, "s2": 2, "d": 3}
    int_net = build_network(
        [0, 1, 2, 3], 3,
        [(ids[cycle_net.states[a]], ids[cycle_net.states[b]], row)
         for a, b, row in zip(cycle_net.arc_from, cycle_net.arc_to, cycle_net.attrs.tolist())],
        cycle_net.attribute_names,
    )
    named = generate_observations_via_layered(cycle_net, spec(1.0), "s0", 200, seed=3)
    numbered = generate_observations_via_layered(int_net, spec(1.0), 0, 200, seed=3)
    assert len(numbered) == 200
    for a, b in zip(named.observations, numbered.observations):
        assert [ids[s] for s in a.path] == list(b.path)
        np.testing.assert_array_equal(a.attr_sum, b.attr_sum)


def test_layered_generation_keeps_self_loops():
    # o -> o is a transition of the network, not destination padding
    net = build_network(["o", "a", "d"], "d",
                        [("o", "o", [0.1]), ("o", "a", [0.1]), ("o", "d", [0.1]),
                         ("a", "d", [0.1])], ["c"])
    obs = generate_observations_via_layered(net, spec(1.0), "o", 50, seed=1)
    assert any(ob.path == ("o", "o", "d") for ob in obs.observations)
    for ob in obs.observations:
        core.validate_path(net, list(ob.path))


def test_zero_observations(two_route_net):
    obs = generate_observations(two_route_net, spec(-1.0), "o", 0, seed=0)
    assert len(obs) == 0


def test_multiple_origins(two_route_net):
    obs = generate_observations(two_route_net, spec(-1.0), ["o", "a"], 1000, seed=7)
    starts = {ob.path[0] for ob in obs.observations}
    assert starts == {"o", "a"}


def test_jsonl_roundtrip(tmp_path, two_route_net):
    s = spec(-1.0)
    obs = generate_observations(two_route_net, s, "o", 50, seed=4)
    p1 = tmp_path / "obs1.jsonl"
    p2 = tmp_path / "obs2.jsonl"
    save_observations(obs, p1)
    obs2 = load_observations(p1, two_route_net)
    save_observations(obs2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert [o.path for o in obs2.observations] == [o.path for o in obs.observations]
    for a, b in zip(obs.observations, obs2.observations):
        np.testing.assert_array_equal(a.attr_sum, b.attr_sum)


def test_load_rejects_broken_path(tmp_path, two_route_net):
    f = tmp_path / "bad.jsonl"
    f.write_text('{"origin": "o", "dest": "d", "path": ["o", "d"]}\n')
    with pytest.raises(InvalidPath):
        load_observations(f, two_route_net)


@pytest.mark.parametrize("line, message", [
    ('{"origin": "o", "dest": "d", "path": ["o"]}', "at least one transition"),
    ('{"origin": "o", "dest": "d", "path": ["o", "a"]}', "must end at destination 'd'"),
    ('{"origin": "o", "dest": "d", "path": ["o", "zz", "d"]}', "no arc 'o' -> 'zz'"),
    ('{"origin": "o", "dest": "d", "path": ["o", "a", "b", "d"]}', "no arc 'a' -> 'b'"),
    ('{"origin": "o", "dest": "x", "path": ["o", "a", "d"]}', "destination 'x'"),
])
def test_load_reports_first_bad_line(tmp_path, two_route_net, line, message):
    good = '{"origin": "o", "dest": "d", "path": ["o", "b", "d"]}'
    later_bad = '{"origin": "o", "dest": "d", "path": ["o", "d"]}'
    f = tmp_path / "bad.jsonl"
    f.write_text("\n".join([good, line, later_bad]) + "\n")
    with pytest.raises(InvalidPath, match=message):
        load_observations(f, two_route_net)


@pytest.mark.parametrize("origin", ['"nonexistent-state"', '"a"', "3"])
def test_load_rejects_an_origin_that_is_not_the_first_state(tmp_path, two_route_net, origin):
    f = tmp_path / "bad.jsonl"
    f.write_text('{"origin": "o", "dest": "d", "path": ["o", "b", "d"]}\n'
                 f'{{"origin": {origin}, "dest": "d", "path": ["o", "a", "d"]}}\n')
    with pytest.raises(InvalidPath, match="line 2: origin .* is not the path's first state 'o'"):
        load_observations(f, two_route_net)


@pytest.mark.parametrize("line, message", [
    ('{"origin": "o", "dest": "d", "path": ["o", "a"', "line 3: malformed JSON"),
    ('{"origin": "o", "dest": "d", "path": ["o", "a", "d"]} {}', "line 3: malformed JSON: Extra"),
    ('{"origin": "o", "path": ["o", "a", "d"]}', "line 3: expected an object"),
    ('["o", "a", "d"]', "line 3: expected an object"),
    ('{"origin": "o", "dest": "d", "path": "oad"}', "line 3: expected an object"),
    ('{"origin": "o", "dest": "x", "path": ["o", "a", "d"]}', "line 3: destination 'x'"),
])
def test_load_names_the_file_line_of_a_malformed_observation(tmp_path, two_route_net, line,
                                                             message):
    good = '{"origin": "o", "dest": "d", "path": ["o", "b", "d"]}'
    f = tmp_path / "bad.jsonl"
    f.write_text("\n".join([good, "", line, good]) + "\n")
    with pytest.raises(InvalidPath, match=message):
        load_observations(f, two_route_net)


NO_ARC = '{"origin": "o", "dest": "d", "path": ["o", "a", "b", "d"]}'
TRUNCATED = '{"origin": "o", "dest": "d", "path": ["o", "a"'
FOREIGN_ORIGIN = '{"origin": "b", "dest": "d", "path": ["o", "a", "d"]}'


@pytest.mark.parametrize("lines, message", [
    ([NO_ARC, TRUNCATED, FOREIGN_ORIGIN], "no arc 'a' -> 'b'"),
    ([TRUNCATED, NO_ARC], "line 1: malformed JSON"),
    ([FOREIGN_ORIGIN, NO_ARC], "line 1: origin 'b'"),
    # a line's path is checked before its origin
    (['{"origin": "b", "dest": "d", "path": ["o", "d"]}', TRUNCATED], "no arc 'o' -> 'd'"),
    (['{"origin": "o", "dest": "d", "path": ["o", ["x"], "d"]}', NO_ARC], "no arc 'o' -> \\['x'\\]"),
])
def test_load_error_names_the_first_bad_line(tmp_path, two_route_net, lines, message):
    f = tmp_path / "bad.jsonl"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidPath, match=message):
        load_observations(f, two_route_net)


def _numbered(net):
    """Copy of ``net`` whose state ids are the state indices."""
    arcs = [(int(i), int(j), row) for i, j, row in zip(net.arc_from, net.arc_to, net.attrs)]
    return build_network(range(net.n_states), net.destination_index, arcs,
                         net.attribute_names)


@pytest.fixture(params=["string ids", "integer ids", "layered"])
def sampled(request, cycle_net):
    """(network, sampled set) with string ids, integer ids, or from the
    layered unrolling of a cyclic network."""
    if request.param == "layered":
        return cycle_net, generate_observations_via_layered(cycle_net, spec(1.0), "s0", 500,
                                                            seed=3)
    net, origin = random_geometric_network(30, 0.3, seed=1), "o"
    if request.param == "integer ids":
        net, origin = _numbered(net), net.state_index("o")
    return net, generate_observations(net, spec(-4.0, -0.1, -0.05, -0.3), origin, 2000, seed=7)


def _canonical_lines(obs) -> bytes:
    """The JSON Lines file rendered one ``canonical_json`` object per line."""
    return "".join(canonical_json({"origin": ob.origin, "dest": ob.destination,
                                   "path": list(ob.path)}) + "\n"
                   for ob in obs.observations).encode()


def test_saved_lines_are_canonical_json(tmp_path, sampled):
    net, obs = sampled
    f = tmp_path / "obs.jsonl"
    save_observations(obs, f)
    assert f.read_bytes() == _canonical_lines(obs)
    # a set converted from Observation objects writes the same bytes
    save_observations(ObservationSet(net, obs.observations), f)
    assert f.read_bytes() == _canonical_lines(obs)


def test_save_load_save_is_byte_identical(tmp_path, sampled):
    net, obs = sampled
    p1, p2 = tmp_path / "obs1.jsonl", tmp_path / "obs2.jsonl"
    save_observations(obs, p1)
    loaded = load_observations(p1, net)
    save_observations(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # loading rebuilds the sampler's arrays
    np.testing.assert_array_equal(loaded.flat, obs.flat)
    np.testing.assert_array_equal(loaded.ptr, obs.ptr)
    assert loaded.attr_sums.tobytes() == obs.attr_sums.tobytes()


def test_loaded_attribute_sums_match_make_observation(tmp_path):
    net = random_geometric_network(30, 0.3, seed=1)
    obs = generate_observations(net, spec(-4.0, -0.1, -0.05, -0.3), "o", 300, seed=2)
    f = tmp_path / "obs.jsonl"
    save_observations(obs, f)
    loaded = load_observations(f, net)
    for ob in loaded.observations:
        one = make_observation(net, list(ob.path))
        assert ob.path == one.path and ob.origin == one.origin
        assert ob.attr_sum.tobytes() == one.attr_sum.tobytes()


def _self_loop_net():
    # P(stay at o) = e^-0.1 = 0.905 at beta = -1; the step cap is 2 x 10 = 20
    return build_network(["o", "d"], "d", [("o", "o", [0.1]), ("o", "d", [2.2])])


def test_walk_reaching_destination_on_the_last_allowed_step():
    net = _self_loop_net()
    # at this seed the walk arrives on exactly the 20th transition
    obs = generate_observations(net, spec(-1.0), "o", 1, seed=148)
    (ob,) = obs.observations
    assert len(ob.path) - 1 == STEP_CAP_FACTOR * net.n_states
    assert ob.path[-1] == "d" and set(ob.path[:-1]) == {"o"}
    assert ob.attr_sum[0] == pytest.approx(19 * 0.1 + 2.2)


def test_walk_beyond_the_step_cap_raises():
    with pytest.raises(StepCapExceeded):
        generate_observations(_self_loop_net(), spec(-1.0), "o", 1, seed=1)


def test_grouping_by_destination(two_route_net):
    obs = generate_observations(two_route_net, spec(-1.0), "o", 10, seed=0)
    assert list(obs.groups) == ["d"]
    assert sorted(obs.groups["d"]) == list(range(10))


# --- golden digests ---------------------------------------------------------
#
# sha256 over every sampled path and the bytes of its attribute sum, pinned
# so that a change to the sampler or to how observations are assembled must
# leave the data bit-identical.


def _obs_digest(obs) -> str:
    h = hashlib.sha256()
    for ob in obs.observations:
        h.update(repr(ob.path).encode())
        h.update(ob.attr_sum.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n_nodes, radius, n_obs, digest", [
    # the 32- and 253-state benchmark DAGs
    (30, 0.3, 5000, "933f8b32a106bcd5a50109a01187517bbcbee91576ef7cb8167ec333428f25f4"),
    (80, 0.18, 2000, "362abeecdbacd27c2db0ed7602dba81e1c98f041ea4363a4c1caae259ddccfa1"),
])
def test_generated_observations_golden_digest(n_nodes, radius, n_obs, digest):
    net = random_geometric_network(n_nodes, radius, seed=1)
    obs = generate_observations(net, spec(-4.0, -0.1, -0.05, -0.3), "o", n_obs, seed=7)
    assert _obs_digest(obs) == digest


def test_layered_observations_golden_digest(cycle_net):
    obs = generate_observations_via_layered(cycle_net, spec(1.0), "s0", 500, seed=3)
    assert _obs_digest(obs) == "7708ebc8ef0a6ab22e309d8084e8eac09d312db0107b3cd132e26631374f52a6"
