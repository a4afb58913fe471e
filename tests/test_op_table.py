"""Every op of the table has one forward and a backward rule that is right.

Every layer has one body written against ``repro.nn.functional``, and
every op there computes its value once — the ``repro.nn.kernels``
function — whatever it is handed.  The equalities below (Tensor operands
with grad enabled against the same values as raw ndarrays, across the
operand layouts BLAS and the ufunc machinery treat differently:
C-contiguous, transposed views, strided slices, stride-0 broadcasts)
therefore hold by construction; they stay because they are what fails
the day an op grows a second forward, and because two of them compare
code that does differ — a kernel writing into a ``ScratchArena`` against
the same kernel allocating.  What the tape adds per op is a hand-written backward rule;
the second half of the file holds each rule to central differences and
the fused ones (``linear``, ``layer_norm``, ``attention``) to the
autograd-derived composites in ``tests/reference_ops.py`` — ``attention``
bit for bit, forward and gradients, since training must not move when
the chain of nodes it replaced became one — and checks the "one forward"
claim structurally: equal kernel call tables with and without the tape,
one tape node per ``Linear`` / ``LayerNorm`` / attention, and a pinned
tape size for one whole training step.
"""

import numpy as np
import pytest

import reference_ops
import repro.nn as nn
from repro.core import ModelConfig, TransJO, drive_beam_states
from repro.core.beam import BeamSearchState
from repro.nn import Parameter, Tensor
from repro.nn import functional as F

pytestmark = pytest.mark.usefixtures("shape_contracts")  # tests/shape_contract.py

RNG = np.random.default_rng(11)


def layouts(shape):
    """The same random values under four memory layouts."""
    base = RNG.normal(size=shape) * 3.0
    yield "contiguous", base
    yield "transposed", np.ascontiguousarray(np.swapaxes(base, -1, -2)).swapaxes(-1, -2)
    wide = np.zeros(shape[:-1] + (2 * shape[-1],))
    wide[..., ::2] = base
    yield "strided", wide[..., ::2]
    yield "broadcast", np.broadcast_to(base[:1], shape)


def both(op, array, *args, **kwargs):
    """(tape result data, kernel result) of a unary-in-x op."""
    x = Tensor(array, requires_grad=True)
    tape = op(x, *args, **kwargs)
    assert isinstance(tape, Tensor) and tape.requires_grad
    raw = op(array, *args, **kwargs)
    assert isinstance(raw, np.ndarray)
    return tape.data, raw


ELEMENTWISE = [
    (F.relu, ()),
    (F.sigmoid, ()),
    (F.tanh, ()),
    (F.softmax, ()),
    (F.log_softmax, ()),
]


@pytest.mark.parametrize("op,args", ELEMENTWISE, ids=lambda v: getattr(v, "__name__", ""))
def test_elementwise_and_normalising_ops(op, args):
    for shape in ((6, 5), (2, 3, 4, 4)):
        for name, array in layouts(shape):
            tape, raw = both(op, array, *args)
            np.testing.assert_array_equal(raw, tape, err_msg=f"{op.__name__} {name} {shape}")


def test_softmax_axes():
    for axis in (0, 1, -1):
        for name, array in layouts((4, 5, 5)):
            for op in (F.softmax, F.log_softmax):
                tape, raw = both(op, array, axis=axis)
                np.testing.assert_array_equal(raw, tape, err_msg=f"{op.__name__} {name} axis={axis}")


def test_masked_fill():
    for name, array in layouts((3, 2, 4, 4)):
        mask = RNG.random(array.shape) < 0.4
        tape, raw = both(F.masked_fill, array, mask, -1e9)
        np.testing.assert_array_equal(raw, tape, err_msg=name)
        # broadcast mask, as attention passes it
        tape, raw = both(F.masked_fill, array, np.broadcast_to(mask[:1, :1], array.shape), -1e9)
        np.testing.assert_array_equal(raw, tape, err_msg=name)


@pytest.mark.parametrize("with_scratch", [False, True])
def test_matmul(with_scratch):
    arena = nn.ScratchArena() if with_scratch else None
    for name_a, a in layouts((2, 3, 5, 4)):
        for name_b, b in layouts((2, 3, 4, 6)):
            tape = F.matmul(Tensor(a, requires_grad=True), Tensor(b))
            assert tape.requires_grad
            for _ in range(2):  # second pass reuses the arena's buffer
                raw = F.matmul(a, b, scratch=arena, tag="t")
                np.testing.assert_array_equal(raw, tape.data, err_msg=f"{name_a} @ {name_b}")
    # attention's scores operand: a swapped-axes view on the right
    q, k = RNG.normal(size=(2, 3, 5, 4)), RNG.normal(size=(2, 3, 7, 4))
    tape = F.matmul(Tensor(q, requires_grad=True), Tensor(k).swapaxes(-1, -2))
    raw = F.matmul(q, k.swapaxes(-1, -2), scratch=arena, tag="s")
    np.testing.assert_array_equal(raw, tape.data)
    if with_scratch:
        assert len(arena) == 2  # one buffer per (tag, shape), reused


@pytest.mark.parametrize("with_scratch", [False, True])
@pytest.mark.parametrize("with_bias", [False, True])
def test_linear(with_scratch, with_bias):
    arena = nn.ScratchArena() if with_scratch else None
    weight = Parameter(RNG.normal(size=(6, 9)))
    bias = Parameter(RNG.normal(size=9)) if with_bias else None
    for shape in ((5, 6), (2, 4, 6)):
        for name, x in layouts(shape):
            tape = F.linear(Tensor(x), weight, bias)
            assert tape.requires_grad
            for _ in range(2):
                raw = F.linear(x, weight, bias, scratch=arena, tag="lin")
                np.testing.assert_array_equal(raw, tape.data, err_msg=f"{name} {shape}")
    # a time-slice view of a sequence
    seq = RNG.normal(size=(3, 5, 6))
    tape = F.linear(Tensor(seq)[:, 2, :], weight, bias)
    np.testing.assert_array_equal(F.linear(seq[:, 2, :], weight, bias), tape.data)


def test_layer_norm():
    gamma, beta = Parameter(RNG.normal(size=8)), Parameter(RNG.normal(size=8))
    for shape in ((5, 8), (2, 8, 8)):
        for name, x in layouts(shape):
            tape = F.layer_norm(Tensor(x), gamma, beta, 1e-5, 8)
            assert tape.requires_grad
            raw = F.layer_norm(x, gamma, beta, 1e-5, 8)
            np.testing.assert_array_equal(raw, tape.data, err_msg=f"{name} {shape}")
            assert raw is not x  # never in place on its input


def test_concat_repeat():
    parts = [array for _, array in layouts((2, 3, 4))]
    for axis in (0, 1, 2):
        tape = F.concat([Tensor(p, requires_grad=True) for p in parts], axis=axis)
        assert tape.requires_grad
        np.testing.assert_array_equal(F.concat(parts, axis=axis), tape.data)
    # a list mixing Tensors and arrays stays on the tape
    mixed = F.concat([Tensor(parts[0], requires_grad=True), parts[1]], axis=0)
    assert isinstance(mixed, Tensor) and mixed.requires_grad
    token = RNG.normal(size=(1, 1, 4))
    tape = F.repeat_batch(Tensor(token, requires_grad=True), 5)
    raw = F.repeat_batch(token, 5)
    np.testing.assert_array_equal(raw, tape.data)
    assert raw.flags.c_contiguous and tape.data.flags.c_contiguous


def test_operand_and_zeros_follow_their_neighbour():
    param = Parameter(RNG.normal(size=4))
    array = RNG.normal(size=(2, 4))
    assert F.operand(param, like=Tensor(array)) is param
    assert F.operand(param, like=array) is param.data
    assert isinstance(F.zeros((2, 3), like=Tensor(array)), Tensor)
    raw = F.zeros((2, 3), like=array)
    assert isinstance(raw, np.ndarray) and raw.dtype == np.float64 and not raw.any()


def test_tape_half_ignores_scratch():
    """The tape must keep its values: a scratch buffer is never used for
    a Tensor result, however many times the call site runs."""
    arena = nn.ScratchArena()
    a, b = Tensor(RNG.normal(size=(3, 4)), requires_grad=True), Tensor(RNG.normal(size=(4, 5)))
    first = F.matmul(a, b, scratch=arena, tag="t")
    second = F.matmul(a * 2.0, b, scratch=arena, tag="t")
    assert len(arena) == 0 and first.data is not second.data


def test_module_call_is_the_boundary():
    """Tensor in → Tensor out under ``no_grad`` (the body ran on raw
    ndarrays); ndarray in → ndarray out; grad enabled → tape."""
    layer = nn.Linear(4, 3)
    x = Tensor(RNG.normal(size=(2, 4)))
    taped = layer(x)
    assert taped.requires_grad
    with nn.no_grad():
        wrapped = layer(x)
        raw = layer(x.data)
    assert isinstance(wrapped, Tensor) and not wrapped.requires_grad
    assert isinstance(raw, np.ndarray)
    np.testing.assert_array_equal(wrapped.data, taped.data)
    np.testing.assert_array_equal(raw, taped.data)


# ---------------------------------------------------------------------------
# Backward rules
# ---------------------------------------------------------------------------
def grads(fn, *arrays):
    """Gradients of ``(fn(*tensors) * w).sum()`` w.r.t. every operand, ``w``
    a fixed random weighting so no rule is tested on an all-ones gradient."""
    tensors = [Tensor(array, requires_grad=True) for array in arrays]
    out = fn(*tensors)
    weights = np.random.default_rng(5).normal(size=out.shape)
    (out * weights).sum().backward()
    return [t.grad for t in tensors]


def numeric_grads(fn, *arrays):
    """The same gradients by central differences (on contiguous copies)."""
    arrays = [np.array(array, order="C") for array in arrays]
    weights = np.random.default_rng(5).normal(size=fn(*arrays).shape)
    return [
        reference_ops.numeric_grad(lambda _: float((fn(*arrays) * weights).sum()), array)
        for array in arrays
    ]


def test_layer_norm_rule_matches_the_composite_and_central_differences():
    gamma, beta = RNG.normal(size=8), RNG.normal(size=8)
    for shape in ((5, 8), (2, 3, 8)):
        for name, x in layouts(shape):
            fused = grads(lambda x, g, b: F.layer_norm(x, g, b, 1e-5, 8), x, gamma, beta)
            composite = grads(lambda x, g, b: reference_ops.layer_norm(x, g, b, 1e-5), x, gamma, beta)
            numeric = numeric_grads(
                lambda x, g, b: F.layer_norm(x, Tensor(g), Tensor(b), 1e-5, 8), x, gamma, beta
            )
            for operand, got, want, approx in zip(("x", "gamma", "beta"), fused, composite, numeric):
                scale = np.abs(want).max()
                np.testing.assert_allclose(
                    got, want, rtol=0, atol=1e-12 * scale, err_msg=f"{operand} {name} {shape}"
                )
                np.testing.assert_allclose(
                    got, approx, rtol=0, atol=1e-6 * scale, err_msg=f"{operand} {name} {shape}"
                )


@pytest.mark.parametrize("with_bias", [False, True])
def test_linear_rule_is_matmul_then_add(with_bias):
    weight = RNG.normal(size=(6, 9))
    operands = (weight, RNG.normal(size=9)) if with_bias else (weight,)
    inputs = [RNG.normal(size=6)]
    inputs += [x for shape in ((5, 6), (2, 4, 6)) for _, x in layouts(shape)]
    for x in inputs:
        fused = grads(F.linear, x, *operands)
        composite = grads(reference_ops.linear, x, *operands)
        for got, want in zip(fused, composite):
            np.testing.assert_array_equal(got, want, err_msg=str(x.shape))


UNARY_RULES = [
    (F.relu, ()),
    (F.sigmoid, ()),
    (F.tanh, ()),
    (F.masked_fill, (RNG.random((1, 3, 4)) < 0.4, -2.0)),  # a small fill: 1e9 would swamp the differences
    (F.repeat_batch, (5,)),
]


@pytest.mark.parametrize("op,args", UNARY_RULES, ids=lambda v: getattr(v, "__name__", ""))
def test_unary_rules_match_central_differences(op, args):
    x = RNG.normal(size=(1, 3, 4))
    x[np.abs(x) < 1e-3] = 0.5  # keep relu away from its kink
    (got,) = grads(lambda t: op(t, *args), x)
    (want,) = numeric_grads(lambda a: op(a, *args), x)
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


def attention_operands(use: str):
    """``(q, k, v, mask)`` of one of ``MultiHeadAttention``'s three uses
    (B 3, 2 heads, dim 8), the mask built the way the layer builds it."""
    rng = np.random.default_rng(17)
    lq, lk = 5, 6 if use == "cross" else 5
    q, k, v = (rng.normal(size=(3, length, 8)) for length in (lq, lk, lk))
    padding = np.zeros((3, lk), dtype=bool)
    if use == "encoder":  # key padding, one row padded throughout
        padding[1, 3:] = padding[2, :] = True
    elif use == "cross":  # padded memory
        padding[0, 4:] = padding[1, 2:] = True
    causal = nn.causal_mask(lq) if use == "causal" else None
    mask = nn.MultiHeadAttention._combined_mask(
        causal, padding if padding.any() else None, (3, 2, lq, lk)
    )
    return q, k, v, mask


ATTENTION_USES = ["encoder", "causal", "cross"]


@pytest.mark.parametrize("use", ATTENTION_USES)
def test_attention_is_the_unfused_chain_bit_for_bit(use):
    """Output and the gradients of q, k and v equal those of the 13-14
    node chain the tape recorded before attention was one op."""
    q, k, v, mask = attention_operands(use)
    scale = 1.0 / np.sqrt(4)

    def fused(q, k, v):
        return F.attention(q, k, v, 2, scale, mask)

    def chain(q, k, v):
        return reference_ops.attention(q, k, v, 2, scale, mask)

    tensors = [Tensor(array) for array in (q, k, v)]
    taped = fused(*tensors).data
    assert np.array_equal(taped, chain(*tensors).data)
    assert np.array_equal(fused(q, k, v), taped)
    assert np.array_equal(F.attention(q, k, v, 2, scale, mask, nn.ScratchArena(), "t"), taped)
    for operand, got, want in zip("qkv", grads(fused, q, k, v), grads(chain, q, k, v)):
        assert np.array_equal(got, want), operand


def test_incremental_decode_matches_the_unfused_chain(monkeypatch):
    """The raw incremental path — cross-attention on ``static_kv`` over
    padded memories, self-attention on a growing ``past_kv``, scratch
    buffers — decodes the log-probs the unfused chain decodes."""
    trans_jo = TransJO(ModelConfig(d_model=16, num_heads=2, decoder_layers=2), np.random.default_rng(4))
    rng = np.random.default_rng(9)
    memories = [Tensor(rng.normal(size=(1, m, 16))) for m in (4, 6, 5)]

    def decode():
        states = [BeamSearchState(~np.eye(memory.shape[1], dtype=bool), beam_width=3)
                  for memory in memories]
        drive_beam_states(trans_jo, memories, states, scratch=nn.ScratchArena())
        return [[(c.positions, c.log_prob) for c in state.candidates()] for state in states]

    fused = decode()
    monkeypatch.setattr(
        F, "attention",
        lambda q, k, v, heads, scale, mask=None, scratch=None, tag="":
            reference_ops.attention(q, k, v, heads, scale, mask),
    )
    assert decode() == fused


def test_attention_rule_matches_central_differences():
    q, k, v, mask = attention_operands("cross")

    def op(q, k, v):
        return F.attention(q, k, v, 2, 0.5, mask)

    for got, want in zip(grads(op, q, k, v), numeric_grads(op, q, k, v)):
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# One forward, structurally
# ---------------------------------------------------------------------------
def test_tape_and_raw_runs_make_the_same_kernel_calls():
    """A grad-enabled and a ``no_grad`` forward get their values from the
    same kernel calls, op for op — the tape has no arithmetic of its own."""
    rng = np.random.default_rng(3)
    decoder = nn.TransformerDecoder(16, 4, num_layers=1, rng=rng)
    mlp = nn.MLP([16, 32, 4], rng=rng)
    x, memory = Tensor(rng.normal(size=(2, 5, 16))), Tensor(rng.normal(size=(2, 7, 16)))
    padding = np.zeros((2, 7), dtype=bool)
    padding[:, -2:] = True

    def run():
        with nn.kernels.profiled() as profile:
            out = mlp(decoder(x, memory, memory_padding_mask=padding))
        return out, {name: stats[0] for name, stats in profile.ops.items()}

    taped, tape_calls = run()
    assert taped.requires_grad
    with nn.no_grad():
        raw, raw_calls = run()
    assert tape_calls == raw_calls
    assert set(tape_calls) == {"linear", "layer_norm", "relu", "softmax", "masked_fill", "matmul"}
    np.testing.assert_array_equal(raw.data, taped.data)


@pytest.mark.parametrize("layer", [nn.Linear(4, 3), nn.LayerNorm(4)], ids=lambda m: type(m).__name__)
def test_fused_layers_add_exactly_one_tape_node(layer):
    x = Tensor(RNG.normal(size=(2, 4)), requires_grad=True)
    out = layer(x)
    assert out._backward is not None
    assert {id(p) for p in out._prev} == {id(x)} | {id(p) for p in layer.parameters()}


def test_attention_adds_exactly_one_tape_node():
    q, k, v = (Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True) for _ in range(3))
    out = F.attention(q, k, v, 2, 0.5)
    assert out._backward is not None
    assert [id(p) for p in out._prev] == [id(q), id(k), id(v)]  # in the order q -> k -> v


def test_one_training_step_tape_size_is_pinned(monkeypatch):
    """One fixed 8-query ``JointTrainer._batch_losses`` (all three tasks,
    3-6-table queries) records exactly this many tape nodes.  The
    join-order loss is one padded decoder forward, so the count does not
    depend on the batch's queries; a change that re-introduces a
    per-query (or per-layer-op) sub-graph moves it — the per-query loop
    of ``tests/per_query_reference.py`` records 984 on this batch.  It
    read 183 while each attention was a 13-14 node chain."""
    from repro.core import MTMLFQO, JointTrainer, ModelConfig
    from repro.core.encoders import DatabaseFeaturizer
    from repro.datagen import generate_database
    from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

    config = ModelConfig(d_model=16, num_heads=2, encoder_layers=1, shared_layers=2, decoder_layers=2)
    db = generate_database(seed=3, num_tables=7, row_range=(40, 80), attr_range=(2, 2))
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=3, max_tables=6, seed=1))
    batch = QueryLabeler(db).label_many(generator.generate(8), with_optimal_order=True)
    assert len(batch) == 8 and len({item.query.num_tables for item in batch}) > 1
    model = MTMLFQO(config)
    model.attach_featurizer(db.name, DatabaseFeaturizer(db, config))
    trainer = JointTrainer(model)

    nodes = []
    make = Tensor._make

    def counting_make(*args):
        out = make(*args)
        nodes.append(out._backward is not None)  # False: made under no_grad by the (F) encoders
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(counting_make))
    loss, _ = trainer._batch_losses(db.name, batch)
    assert loss.requires_grad
    assert sum(nodes) == 105
