"""Network evaluation, query counting, instance generation, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import three_layer
from netpeel.extract3 import extract_three_layer
from netpeel.oracle.generate import (
    GenerationError,
    check_nonzero_partials,
    generate_three_layer,
    generate_two_layer,
)
from netpeel.oracle.nets import (
    AffineMap,
    Neuron,
    TwoLayerNet,
    batch_eval,
)
from netpeel.oracle.query import AccessAudit, as_oracle
from netpeel.oracle.serialize import (
    document_to_net,
    dumps_document,
    load_net,
    loads_document,
    net_to_document,
    save_net,
)


def _net(neurons, skip=None, d=None):
    d = d if d is not None else len(neurons[0][0])
    skip = skip if skip is not None else (np.zeros(d), 0.0)
    return TwoLayerNet(
        d=d,
        neurons=tuple(Neuron(np.asarray(w, float), float(b), s) for w, b, s in neurons),
        skip=AffineMap(np.asarray(skip[0], float), float(skip[1])),
    )


def _value(net, x):
    """One point evaluated as a batch of one row."""
    return float(batch_eval(net, [x])[0])


def test_single_relu_unit():
    net = _net([([1.0], 0.0, 1)])
    assert _value(net, [2.0]) == 2.0
    assert _value(net, [0.0]) == 0.0


def test_two_units_with_skip():
    """relu(3-1) - relu(2) + 5 = 5 at the point (3, 2)."""
    net = _net(
        [([1.0, 0.0], -1.0, 1), ([0.0, 1.0], 0.0, -1)],
        skip=([0.0, 0.0], 5.0),
    )
    assert _value(net, [3.0, 2.0]) == 5.0


def test_three_layer_identity_chain():
    """A 1-1-1 net with all weights 1 acts as relu on scalars."""
    ident = three_layer(W=np.array([[1.0]]), b=np.array([0.0]),
                        V=np.array([[1.0]]), c=np.array([0.0]),
                        signs=np.array([1]))
    assert _value(ident, [3.0]) == 3.0
    assert _value(ident, [-3.0]) == 0.0


def test_three_layer_matches_hand_rolled_loops():
    """Vectorized evaluation against an index-by-index reimplementation."""
    net = generate_three_layer(3, 2, 4, np.random.default_rng(5))
    V, c, signs = net.top.weight_matrix(), net.top.biases(), net.top.signs()
    rng = np.random.default_rng(6)
    for x in rng.uniform(-4, 4, size=(20, 3)):
        hidden = []
        for i in range(2):
            z = sum(net.W[i][j] * x[j] for j in range(3)) + net.b[i]
            hidden.append(max(z, 0.0))
        out = 0.0
        for k in range(4):
            z = sum(V[k][i] * hidden[i] for i in range(2)) + c[k]
            out += signs[k] * max(z, 0.0)
        assert _value(net, x) == pytest.approx(out, abs=1e-12)


def test_batch_eval_matches_oracle_queries():
    """Batches and single-row queries agree with a unit-by-unit sum."""
    net = generate_two_layer(4, 6, np.random.default_rng(2))
    oracle = as_oracle(net)
    xs = np.random.default_rng(3).uniform(0, 8, size=(50, 4))
    got = batch_eval(net, xs)
    for x, y in zip(xs, got):
        ref = sum(n.sign * max(float(n.w @ x) + n.b, 0.0) for n in net.neurons)
        assert y == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert oracle(x) == pytest.approx(y, rel=1e-12, abs=1e-12)


def test_query_counter_counts_evaluations():
    net = generate_two_layer(2, 3, np.random.default_rng(1))
    oracle = as_oracle(net)
    for t in range(5):
        oracle(np.array([float(t), 1.0]))
    assert oracle.count == 5


def test_query_counters_are_independent():
    net = generate_two_layer(2, 3, np.random.default_rng(1))
    a = as_oracle(net)
    b = as_oracle(net)
    a(np.array([1.0, 1.0]))
    a(np.array([2.0, 1.0]))
    b(np.array([1.0, 1.0]))
    assert (a.count, b.count) == (2, 1)


def test_generated_scalar_unit_crosses_in_window():
    net = generate_two_layer(1, 1, np.random.default_rng(3))
    unit = net.neurons[0]
    crossing = -unit.b / unit.w[0]
    assert 0.0 < crossing < 1e4


def test_generated_axis_crossings_are_separated():
    """Axis restrictions of a (5, 10) instance keep their kinks apart."""
    net = generate_two_layer(5, 10, np.random.default_rng(7))
    for axis in range(5):
        crossings = []
        for unit in net.neurons:
            if abs(unit.w[axis]) > 1e-12:
                t = -unit.b / unit.w[axis]
                if t > 0:
                    crossings.append(t)
        crossings.sort()
        for a, b in zip(crossings, crossings[1:]):
            assert b - a >= 1e-4


def test_generation_is_deterministic_per_seed():
    net_a = generate_two_layer(3, 5, np.random.default_rng(11))
    net_b = generate_two_layer(3, 5, np.random.default_rng(11))
    for u, v in zip(net_a.neurons, net_b.neurons):
        assert np.array_equal(u.w, v.w) and u.b == v.b and u.sign == v.sign
    three_a = generate_three_layer(4, 2, 6, np.random.default_rng(11))
    three_b = generate_three_layer(4, 2, 6, np.random.default_rng(11))
    assert np.array_equal(three_a.W, three_b.W)
    assert np.array_equal(three_a.top.biases(), three_b.top.biases())


def test_three_layer_rows_unit_norm_and_v_nonzero():
    net = generate_three_layer(2, 1, 3, np.random.default_rng(4))
    assert np.linalg.norm(net.W[0]) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(net.top.weight_matrix()) > 0)


def test_generated_instance_passes_own_assumptions():
    net = generate_three_layer(4, 3, 9, np.random.default_rng(11))
    top = net.top
    assert check_nonzero_partials(top.weight_matrix(), top.biases(), top.signs(),
                                  np.random.default_rng(0))
    assert np.linalg.svd(net.W, compute_uv=False).min() > 0.0


def test_nonzero_partials_on_scalar_cases():
    rng = np.random.default_rng(0)
    assert check_nonzero_partials(np.array([[1.0]]), np.array([0.0]),
                                  np.array([1]), rng)
    # with c = -10 the unit is dead everywhere near the origin
    assert not check_nonzero_partials(np.array([[1.0]]), np.array([-10.0]),
                                      np.array([1]), rng)


def test_generation_failure_names_the_shape():
    margins = generate_two_layer.__kwdefaults__["margins"]
    tight = type(margins)(**{**margins.__dict__, "separation": 40.0})
    with pytest.raises(GenerationError):
        generate_two_layer(2, 8, np.random.default_rng(0), margins=tight,
                           retries=5)


def test_save_load_round_trip(tmp_path):
    """A reloaded net re-serializes to byte-identical text."""
    net = generate_two_layer(3, 4, np.random.default_rng(9))
    path = tmp_path / "net.json"
    save_net(path, net, seed=9)
    text_a = path.read_text()
    again = load_net(path)
    text_b = dumps_document(net_to_document(again, seed=9))
    assert text_a == text_b
    xs = np.random.default_rng(1).uniform(0, 5, size=(100, 3))
    assert np.array_equal(batch_eval(net, xs), batch_eval(again, xs))


def test_three_layer_save_load_round_trip(tmp_path):
    """Generated (no skip) and extracted (with a skip over the hidden
    activations) depth-3 nets reload and re-serialize to byte-identical text."""
    net = generate_three_layer(3, 2, 5, np.random.default_rng(13))
    found = extract_three_layer(as_oracle(net), 3, 1e-4).network()
    assert net.top.skip is None and found.top.skip is not None
    xs = np.random.default_rng(2).uniform(-4, 4, size=(100, 3))
    for name, orig in (("net3.json", net), ("found3.json", found)):
        path = tmp_path / name
        save_net(path, orig, seed=13)
        text_a = path.read_text()
        again = load_net(path)
        assert dumps_document(net_to_document(again, seed=13)) == text_a
        assert ("skip_w" in json.loads(text_a)) == (orig.top.skip is not None)
        assert np.array_equal(batch_eval(orig, xs), batch_eval(again, xs))


def test_document_depth_is_validated():
    net = generate_two_layer(2, 2, np.random.default_rng(0))
    doc = net_to_document(net)
    doc["depth"] = 4
    with pytest.raises(ValueError, match="depth must be 2 or 3"):
        loads_document(json.dumps(doc))


def test_document_is_plain_json():
    net = generate_three_layer(2, 2, 4, np.random.default_rng(8))
    text = dumps_document(net_to_document(net))
    doc = json.loads(text)
    assert doc["depth"] == 3


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 4), d1=st.integers(1, 5), seed=st.integers(0, 2**31))
def test_serialization_round_trip_is_exact(d, d1, seed):
    """Weights survive the text format bit for bit, any shape, any seed."""
    net = generate_two_layer(d, d1, np.random.default_rng(seed))
    text = dumps_document(net_to_document(net))
    again = document_to_net(loads_document(text))
    for u, v in zip(net.neurons, again.neurons):
        assert np.array_equal(u.w, v.w)
        assert u.b == v.b and u.sign == v.sign
    assert dumps_document(net_to_document(again)) == text


def test_access_audit_counts_reads_only_while_armed():
    net = generate_two_layer(2, 2, np.random.default_rng(0))
    audit = AccessAudit(net)
    audit.neurons
    assert audit.reads == 0
    audit.arm()
    audit.neurons
    audit.skip
    assert audit.reads == 2
    audit.disarm()
    audit.d
    assert audit.reads == 2


def test_oracle_construction_does_not_trip_the_audit():
    """Queries run through a prebuilt oracle touch no net attributes."""
    net = generate_two_layer(3, 4, np.random.default_rng(5))
    audit = AccessAudit(net)
    oracle = as_oracle(audit)
    audit.arm()
    for t in range(10):
        oracle(np.array([float(t), 0.5, 1.0]))
    audit.disarm()
    assert audit.reads == 0
    assert oracle.count == 10
