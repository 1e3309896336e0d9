"""Path sampling: reproducibility, empirical frequencies, serialization."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from rlogit import core
from rlogit.errors import InvalidPath, StepCapExceeded
from rlogit.generators import bic_dag, random_geometric_network
from rlogit.network import build_network, canonical_json, enumerate_paths
from rlogit.simulate import (
    STEP_CAP_FACTOR,
    ObservationSet,
    _sample_paths_batch,
    generate_observations,
    generate_observations_via_layered,
    load_observations,
    make_observation,
    sample_path,
    save_observations,
)

from conftest import _dense_cyclic_instance, cyclic_geometric_networks, dag_samples


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


BETA_CYCLIC = (-8.0, -0.2, -0.1, -0.6)


@pytest.mark.parametrize("n_nodes, radius, seed, path_seed, digest", [
    # the criterion-06 cyclic benchmark instances at their path seeds
    (20, 0.35, 29, 3, "c953dde4767796da1bc07e41bf258a57c26e82473947cb1004490eee8d3dfa68"),
    (30, 0.3, 2274, 6, "55dcc96123b0a65312bfdd8f247651b65fca20143d2a1d265c9d1df2ebbc58c3"),
    (30, 0.3, 6769, 9, "7beadd49981d5cf632e0dc8f75d3168d6068bc1dfb80c2a78c99f740e24ae79d"),
])
def test_cyclic_observations_golden_digest(n_nodes, radius, seed, path_seed, digest):
    net = random_geometric_network(n_nodes, radius, seed=seed, acyclic=False)
    obs = generate_observations(net, spec(*BETA_CYCLIC), "o", 300, seed=path_seed)
    assert _obs_digest(obs) == digest


def test_dense_cyclic_observations_golden_digest():
    # the criterion-08 dense instance: one attribute, so K = 1 sums
    obs = generate_observations(_dense_cyclic_instance(), spec(-2.2), "s0", 300, seed=8)
    assert _obs_digest(obs) == "1c2f9dd3a6b62057162380069be18c33c105c8005eadfde74354321b06000ef5"


# --- the sampler against a reference loop ----------------------------------
#
# The reference is the sampler's former inner step: per rank k, a masked
# gather from the cumulative probabilities in tail order.  Both must give the
# same walks from the same stream, and stop at the step cap alike.


def _reference_sample_paths_batch(net, probs, start_states, rng):
    dest = net.destination_index
    cap = STEP_CAP_FACTOR * net.n_states
    order, first, deg = net.tail_order, net.tail_offsets[:-1], np.diff(net.tail_offsets)
    p = probs[order]
    cum = p.copy()
    rank = np.arange(len(order)) - net.tail_starts[net.tail_segment]
    for k in range(1, int(deg.max(initial=0))):
        at = np.flatnonzero(rank == k)
        cum[at] = cum[at - 1] + p[at]
    cum /= cum[net.tail_offsets[net.tail_owners + 1] - 1][net.tail_segment]

    starts = np.array(start_states, dtype=np.intp)
    cur = starts.copy()
    active = np.flatnonzero(cur != dest)
    walks, taken = [active[:0]], [active[:0]]
    for _ in range(cap):
        if len(active) == 0:
            break
        u = rng.random(len(active))
        here_first, here_last = first[cur[active]], deg[cur[active]] - 1
        pick = np.zeros(len(active), dtype=np.intp)
        for k in range(int(here_last.max())):
            inside = k < here_last
            pick += inside & (cum[here_first + np.where(inside, k, 0)] < u)
        arc = order[here_first + pick]
        walks.append(active)
        taken.append(arc)
        cur[active] = net.arc_to[arc]
        active = active[cur[active] != dest]
    if len(active):
        raise StepCapExceeded(f"{len(active)} walks still active after {cap} steps")
    walk_of_step = np.concatenate(walks)
    arcs = np.concatenate(taken)[np.argsort(walk_of_step, kind="stable")]
    return starts, arcs, np.bincount(walk_of_step, minlength=len(starts))


def _assert_same_walks(net, probs, starts, seed):
    """Both samplers on one Philox stream: equal CSR arrays and equal draws
    taken from the stream, or the same StepCapExceeded."""
    outcomes = []
    for sampler in (_sample_paths_batch, _reference_sample_paths_batch):
        rng = np.random.Generator(np.random.Philox(seed))
        try:
            walks = sampler(net, probs, starts, rng)
        except StepCapExceeded as exc:
            walks = str(exc)
        outcomes.append((walks, rng.random(4)))  # the stream past the walks
    (got, got_next), (want, want_next) = outcomes
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got_next, want_next)


def _model_probabilities(net, beta):
    s = spec(*beta)
    return core.choice_probabilities(net, s, core.solved_values(net, s))


@settings(max_examples=40, deadline=None)
@given(dag_samples(), st.lists(st.integers(0, 3), min_size=1, max_size=60),
       st.integers(0, 2**32 - 1))
def test_sampler_matches_reference_on_generated_dags(sample, origins, seed):
    net, _obs, beta, _mu = sample
    _assert_same_walks(net, _model_probabilities(net, beta), origins, seed)


@settings(max_examples=20, deadline=None)
@given(cyclic_geometric_networks(), st.integers(1, 400), st.integers(0, 2**32 - 1))
def test_sampler_matches_reference_on_cyclic_networks(net, n_walks, seed):
    # a beta at which every generated network has finite values
    probs = _model_probabilities(net, [-20.0, -1.0, -1.0, -2.0])
    starts = np.random.default_rng(seed).integers(0, net.n_states, size=n_walks)
    _assert_same_walks(net, probs, starts, seed)


# exact zeros and repeated cumulative values among hand-drawn weights
WEIGHTS = st.sampled_from([0.0, 0.0, 1e-300, 0.25, 0.5, 1.0, 3.0])


@st.composite
def _hand_built_choices(draw):
    """(network, per-arc weights, start states): states s0.. with one to
    five successors each, degree-1 states included, drawn weights of which
    at least one per state is positive.  The destination need not be
    reachable, so some walks run into the step cap."""
    n = draw(st.integers(2, 7))
    states = [f"s{i}" for i in range(n - 1)] + ["d"]
    arcs, weights = [], []
    for i in range(n - 1):
        heads = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True))
        drawn = draw(st.lists(WEIGHTS, min_size=len(heads), max_size=len(heads)))
        drawn[draw(st.integers(0, len(heads) - 1))] = draw(st.sampled_from([0.25, 1.0, 3.0]))
        arcs += [(states[i], states[j], [0.0]) for j in heads]
        weights += drawn
    net = build_network(states, "d", arcs)
    starts = draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=30))
    return net, np.array(weights), starts


@settings(max_examples=150, deadline=None)
@given(_hand_built_choices(), st.integers(0, 2**32 - 1))
def test_sampler_matches_reference_on_hand_built_choices(case, seed):
    net, weights, starts = case
    _assert_same_walks(net, weights, starts, seed)


def test_sampler_matches_reference_where_probabilities_underflow():
    # at beta = -1 the costs 800 and 900 leave exact zeros among o's and a's
    # choices, so their cumulative probabilities repeat; b has one successor
    net = build_network(["o", "a", "b", "d"], "d",
                        [("o", "a", [1.0]), ("o", "b", [800.0]), ("o", "d", [3.0]),
                         ("a", "o", [900.0]), ("a", "b", [0.5]), ("a", "d", [900.0]),
                         ("a", "a", [2.0]), ("b", "d", [0.1])])
    probs = _model_probabilities(net, [-1.0])
    assert np.count_nonzero(probs == 0.0) == 3
    for seed in range(20):
        _assert_same_walks(net, probs, [0] * 50 + [1] * 50 + [2] * 5, seed)


@pytest.mark.parametrize("seed", [1, 148])
def test_sampler_matches_reference_at_the_step_cap(seed):
    # seed 148 arrives on the last allowed step, seed 1 runs past it
    net = _self_loop_net()
    _assert_same_walks(net, _model_probabilities(net, [-1.0]), [0], seed)
