import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hnd.errors import ShapeMismatch, TooLarge
from hnd.hypergraph import Hypergraph
from hnd.operators import (
    HypergraphOperators,
    divergence_apply,
    gradient_apply,
    laplacian_apply,
    laplacian_matrix,
    scaled_gradient_matrix,
)

from conftest import random_hypergraph

H0_GRAD = np.array([0.353553, -0.353553, 0.471405, -0.235702, -0.235702])


def test_gradient_h0_hand_values(h0_ops):
    g = gradient_apply(h0_ops, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(g, H0_GRAD, atol=1e-6)


def test_gradient_normalized_constant_null(h0_ops):
    f = h0_ops.sqrt_d
    assert np.abs(gradient_apply(h0_ops, f)).max() <= 1e-12


def test_gradient_null_on_random_hypergraphs():
    for seed in range(10):
        ops = HypergraphOperators(random_hypergraph(seed))
        assert np.abs(ops.grad(ops.sqrt_d)).max() <= 1e-12
        L = laplacian_matrix(ops)
        assert np.abs(L @ ops.sqrt_d).max() <= 1e-12


def test_gradient_linearity(h0_ops):
    f = np.array([0.3, -1.2, 2.0])
    assert np.allclose(gradient_apply(h0_ops, -3.0 * f),
                       -3.0 * gradient_apply(h0_ops, f), atol=1e-14)


def test_divergence_zero(h0_ops):
    assert np.array_equal(divergence_apply(h0_ops, np.zeros(5)), np.zeros(3))


@given(st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_adjointness_random(seed):
    hg = random_hypergraph(seed)
    ops = HypergraphOperators(hg)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(ops.n)
    g = rng.standard_normal(ops.N)
    lhs = float((ops.w_pair * ops.grad(f) * g).sum())
    rhs = float((f * ops.div(g)).sum())
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_divergence_of_gradient_equals_laplacian(h0_ops):
    f = np.array([1.0, 0.0, 0.0])
    via_ops = divergence_apply(h0_ops, gradient_apply(h0_ops, f))
    via_matrix = laplacian_matrix(h0_ops) @ f
    assert np.allclose(via_ops, via_matrix, atol=1e-12)


def test_scaled_gradient_row_sums(h0_ops):
    G = scaled_gradient_matrix(h0_ops)
    assert np.abs(G @ h0_ops.sqrt_d).max() <= 1e-12
    assert G.shape == (5, 3)


def test_factorization_h0(h0_ops):
    G = scaled_gradient_matrix(h0_ops)
    L = laplacian_matrix(h0_ops)
    assert np.abs(G.T @ G - L).max() <= 1e-12


def test_laplacian_h0_diagonal(h0_ops):
    L = laplacian_matrix(h0_ops)
    assert np.allclose(np.diag(L), [7.0 / 12.0, 7.0 / 12.0, 2.0 / 3.0], atol=1e-12)


def test_laplacian_symmetric_psd_random():
    for seed in range(20):
        ops = HypergraphOperators(random_hypergraph(seed + 100))
        L = laplacian_matrix(ops)
        assert np.abs(L - L.T).max() <= 1e-12
        eigs = np.linalg.eigvalsh(L)
        assert eigs.min() >= -1e-9
        assert eigs.max() <= 2.0 + 1e-9


def test_factorization_random():
    for seed in range(10):
        ops = HypergraphOperators(random_hypergraph(seed + 300))
        G = scaled_gradient_matrix(ops)
        L = laplacian_matrix(ops)
        assert np.abs(G.T @ G - L).max() <= 1e-12


def test_matrix_free_matches_matrices():
    for seed in range(5):
        ops = HypergraphOperators(random_hypergraph(seed + 500))
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((ops.n, 3))
        g = rng.standard_normal((ops.N, 3))
        G = scaled_gradient_matrix(ops)
        assert np.allclose(ops.grad_scaled(f), G @ f, atol=1e-12)
        assert np.allclose(ops.grad_scaled_t(g), G.T @ g, atol=1e-12)
        # pinned scaling: div(g) = Dv^{-1/2} (B-C)^T S g = G^T S^{1/2} g
        assert np.allclose(divergence_apply(ops, g),
                           G.T @ (np.sqrt(ops.w_pair)[:, None] * g), atol=1e-12)
        assert np.allclose(laplacian_apply(ops, f), G.T @ (G @ f), atol=1e-12)


def test_shape_mismatch_errors(h0_ops):
    with pytest.raises(ShapeMismatch):
        gradient_apply(h0_ops, np.zeros(4))
    with pytest.raises(ShapeMismatch):
        divergence_apply(h0_ops, np.zeros(6))


@pytest.mark.parametrize("apply, rows", [(gradient_apply, "n"), (divergence_apply, "N"),
                                         (laplacian_apply, "n")])
def test_scalar_and_3d_signals_raise_shape_mismatch(h0_ops, apply, rows):
    size = getattr(h0_ops, rows)
    for signal in (3.0, np.array(3.0), np.zeros((size, 2, 2))):
        with pytest.raises(ShapeMismatch):
            apply(h0_ops, signal)


def test_dense_oracle_symmetry_h0(h0_ops):
    L = laplacian_matrix(h0_ops)
    assert np.array_equal(L, L.T)


def _ring(n):
    return Hypergraph(n=n, edges=tuple(tuple(sorted((v, (v + 1) % n))) for v in range(n)),
                      weights=(1.0,) * n)


def test_dense_oracle_too_large():
    # rings of 2-member edges: G is 2n x n, L is n x n; 10**6 entries is the limit
    assert laplacian_matrix(_ring(1000)).shape == (1000, 1000)
    with pytest.raises(TooLarge):
        scaled_gradient_matrix(_ring(1000))
    for build in (scaled_gradient_matrix, laplacian_matrix):
        with pytest.raises(TooLarge):
            build(_ring(1001))


def test_too_large_names_the_entry_count():
    # G of a 1000-node ring is 2000 x 1000
    with pytest.raises(TooLarge, match=r"would hold 2000000 entries$"):
        scaled_gradient_matrix(_ring(1000))


def _incidence(ops):
    """Dense N x n pair-to-node and N x m pair-to-edge selectors."""
    B = np.zeros((ops.N, ops.n))
    B[np.arange(ops.N), ops.pair_node] = 1.0
    C = np.zeros((ops.N, ops.m))
    C[np.arange(ops.N), ops.pair_edge] = 1.0
    return B, C


@given(st.integers(0, 2**32), st.lists(st.sampled_from([1, 2, 3, 5, 16]), min_size=2, max_size=4))
@settings(max_examples=20, deadline=None)
def test_node_and_edge_sums_match_incidence_products(seed, widths):
    ops = HypergraphOperators(random_hypergraph(seed))
    B, C = _incidence(ops)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(ops.N)
    assert np.allclose(ops.node_sum(v), B.T @ v, atol=1e-12)
    assert np.allclose(ops.edge_sum(v), C.T @ v, atol=1e-12)
    # each new width fills the scatter-index cache; revisits reuse it
    for d in widths + widths[:1]:
        z = rng.standard_normal((ops.N, d))
        assert ops.node_sum(z).shape == (ops.n, d)
        assert np.allclose(ops.node_sum(z), B.T @ z, atol=1e-12)
        assert np.allclose(ops.edge_sum(z), C.T @ z, atol=1e-12)
    # a strided (non-contiguous) column block sums like its copy
    wide = rng.standard_normal((ops.N, 6))
    assert np.array_equal(ops.node_sum(wide[:, :3]), ops.node_sum(wide[:, :3].copy()))


def test_as_operators_cached_per_hypergraph():
    from hnd.operators import as_operators

    hg = random_hypergraph(7)
    ops = as_operators(hg)
    assert as_operators(hg) is ops
    assert as_operators(ops) is ops
    assert as_operators(random_hypergraph(7)) is not ops


def test_workspace_cache_shared_under_thread_race():
    import sys
    import threading

    from hnd.operators import as_operators

    hg = random_hypergraph(13)
    z = np.random.default_rng(13).standard_normal((sum(map(len, hg.edges)), 7))
    workers = 8
    barrier = threading.Barrier(workers)
    seen, sums = [], []

    def work():
        barrier.wait(timeout=10)
        ops = as_operators(hg)
        seen.append(ops)
        sums.append(ops.node_sum(z).tobytes())

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == workers and all(ops is as_operators(hg) for ops in seen)
    assert len(set(sums)) == 1


def test_quad_apply_bit_identical_across_calls():
    ops = HypergraphOperators(random_hypergraph(11))
    rng = np.random.default_rng(11)
    a = rng.uniform(0.1, 1.0, ops.N)
    for f in (rng.standard_normal(ops.n), rng.standard_normal((ops.n, 4))):
        assert ops.quad_apply(a, f).tobytes() == ops.quad_apply(a, f).tobytes()


def _loop_scaled_gradient_triples(ops, hg):
    rows, cols, vals = [], [], []
    for e, members in enumerate(hg.edges):
        k = len(members)
        sw = np.sqrt(ops.w_edge[e])
        for j, v in enumerate(members):
            for u in members:
                coef = -sw / (k * ops.sqrt_d[u])
                if u == v:
                    coef += sw / ops.sqrt_d[v]
                rows.append(ops.edge_ptr[e] + j)
                cols.append(u)
                vals.append(coef)
    return rows, cols, vals


def _loop_laplacian_triples(ops, hg):
    rows, cols, vals = [], [], []
    for e, members in enumerate(hg.edges):
        coef = ops.w_edge[e] / len(members)
        for v in members:
            for u in members:
                rows.append(v)
                cols.append(u)
                vals.append(-coef / (ops.sqrt_d[v] * ops.sqrt_d[u]))
    rows.extend(range(ops.n))
    cols.extend(range(ops.n))
    vals.extend([1.0] * ops.n)
    return rows, cols, vals


def test_matrix_builders_equal_loop_reference():
    for seed in range(10):
        hg = random_hypergraph(seed + 700)
        ops = HypergraphOperators(hg)
        cases = (
            (scaled_gradient_matrix(ops), (ops.N, ops.n), _loop_scaled_gradient_triples),
            (laplacian_matrix(ops), (ops.n, ops.n), _loop_laplacian_triples),
        )
        for built, shape, loop in cases:
            rows, cols, vals = loop(ops, hg)
            ref = np.zeros(shape)
            np.add.at(ref, (rows, cols), vals)
            assert type(built) is np.ndarray
            assert np.array_equal(built, ref)
        # L[v, u] and L[u, v] add the same terms in the same (edge) order
        L = cases[1][0]
        assert np.array_equal(L, L.T)


def _workspace_arrays(ops):
    """Every array the workspace holds, directly or in its index records."""
    found = {}
    for name, value in vars(ops).items():
        if isinstance(value, np.ndarray):
            found[name] = value
        elif isinstance(value, dict):
            found.update({f"{name}[{k}]": v for k, v in value.items()})
        elif hasattr(value, "__dict__"):
            found.update({f"{name}.{k}": v for k, v in vars(value).items()
                          if isinstance(v, np.ndarray)})
    return found


signal_widths = st.one_of(st.none(), st.integers(1, 5))


@given(st.integers(0, 2**32), signal_widths, st.booleans())
@settings(max_examples=40, deadline=None)
def test_applies_leave_inputs_and_workspace_unchanged(seed, width, strided):
    ops = HypergraphOperators(random_hypergraph(seed))
    rng = np.random.default_rng(seed)
    tail = () if width is None else (width,)

    def signal(rows):
        if strided and width is not None:
            return rng.standard_normal((rows, 2 * width))[:, ::2]
        return rng.standard_normal((rows,) + tail)

    f, g, a = signal(ops.n), signal(ops.N), rng.uniform(0.1, 2.0, ops.N)
    inputs = {"f": f, "g": g, "a": a}
    before = {k: v.tobytes() for k, v in inputs.items()}
    workspace = {k: v.tobytes() for k, v in _workspace_arrays(ops).items()}
    outputs = {
        "grad": (ops.grad(f), ops.N), "div": (ops.div(g), ops.n),
        "grad_scaled": (ops.grad_scaled(f), ops.N),
        "grad_scaled_t": (ops.grad_scaled_t(g), ops.n),
        "grad_scaled_t(a)": (ops.grad_scaled_t(g, a=a), ops.n),
        "laplacian": (ops.laplacian(f), ops.n), "quad_apply": (ops.quad_apply(a, f), ops.n),
    }
    assert {k: v.tobytes() for k, v in inputs.items()} == before
    after = _workspace_arrays(ops)
    assert {k: after[k].tobytes() for k in workspace} == workspace
    for name, (out, rows) in outputs.items():
        assert out.shape == (rows,) + tail, name
        assert not any(np.shares_memory(out, x) for x in (f, g, a, *after.values())), name


@given(st.integers(0, 2**32), signal_widths)
@settings(max_examples=30, deadline=None)
def test_weighted_transpose_matches_dense_oracle(seed, width):
    ops = HypergraphOperators(random_hypergraph(seed))
    # a slip between sqrt(w) and w shows only where the weights are not 1
    assume(np.ptp(ops.w_pair) > 0.1)
    G = scaled_gradient_matrix(ops)
    rng = np.random.default_rng(seed)
    tail = () if width is None else (width,)
    f = rng.standard_normal((ops.n,) + tail)
    y = rng.standard_normal((ops.N,) + tail)
    a = rng.uniform(0.1, 2.0, ops.N)
    A = np.diag(a)
    assert np.abs(ops.grad_scaled_t(y, a=a) - G.T @ A @ y).max() <= 1e-12
    assert np.abs(ops.quad_apply(a, f) - G.T @ A @ G @ f).max() <= 1e-12
    # rounds exactly as the two-apply form the training step uses
    assert ops.quad_apply(a, f).tobytes() == ops.grad_scaled_t(ops.grad_scaled(f), a=a).tobytes()


def _same(u, v):
    return u.shape == v.shape and u.tobytes() == v.tobytes()


@pytest.mark.parametrize("width", [1, 2, 16])
def test_apply_plan_rounds_as_the_broadcast_scales(width):
    # a plan's (rows, C) scales give the bits of the (rows, 1) broadcasts, zeros in a included
    for seed in (3, 17, 58):
        ops = HypergraphOperators(random_hypergraph(seed))
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 2.0, ops.N) * (rng.random(ops.N) > 0.3)
        assert (a == 0).any()
        plain, weighted = ops.apply_plan(width), ops.apply_plan(width, a)
        G = scaled_gradient_matrix(ops)
        for tail in [(width,)] + [()] * (width == 1):
            f = rng.standard_normal((ops.n,) + tail)
            y = rng.standard_normal((ops.N,) + tail)
            ay = a.reshape((-1,) + (1,) * len(tail)) * y
            assert np.abs(ops.grad_scaled_t(y, plan=weighted) - G.T @ ay).max() <= 1e-12
            assert _same(ops.grad_scaled(f, plan=plain), ops.grad_scaled(f))
            assert _same(ops.grad_scaled(f, plan=weighted), ops.grad_scaled(f))
            assert _same(ops.grad_scaled_t(y, plan=plain), ops.grad_scaled_t(y))
            assert _same(ops.grad_scaled_t(y, plan=weighted), ops.grad_scaled_t(y, a=a))


def test_apply_plan_refuses_other_widths_and_a_second_a(h0_ops):
    ops = h0_ops
    plan = ops.apply_plan(3, np.ones(ops.N))
    for f in (np.ones(ops.n), np.ones((ops.n, 1)), np.ones((ops.n, 2))):
        with pytest.raises(ShapeMismatch):
            ops.grad_scaled(f, plan=plan)
    with pytest.raises(ShapeMismatch):
        ops.grad_scaled_t(np.ones((ops.N, 3)), a=np.ones(ops.N), plan=plan)
