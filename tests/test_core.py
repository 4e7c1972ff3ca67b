import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchprune import (
    BoundReport,
    DataMatrix,
    DimensionMismatchError,
    InvalidDensityError,
    Mask,
    ProbabilityVector,
    RngStream,
    SyntheticDataset,
    TinyMLP,
    as_vector,
    enumerate_exact_error,
    empirical_ntk,
    exact_expected_error,
    features,
    gen_chi_input,
    gen_normal_X,
    gen_sparse_X,
    lemma2_bound,
    lemma4_uniform_bound,
    make_dataset,
    mc_error_over_data,
    mc_error_over_masks,
    optimal_probabilities,
    row_norms,
    run_prune_pipeline,
    sample_sketch_mask,
    scores_to_probabilities,
    seed_state,
    select_randomized,
    select_topk,
    snip_scores_l1,
    synflow_scores,
    take_snapshot,
    theorem2_report,
    theorem1_bound,
    train_least_squares,
    train_linearized_gd,
    uniform_probabilities,
)
from sketchprune import core


class TestDataMatrix:
    def test_shape_accessors(self):
        X = DataMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert (X.d, X.n) == (2, 3)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            for index in ((0, 0), (-1, -1)):
                values = np.ones((3, 4))
                values[index] = bad
                with pytest.raises(ValueError, match="finite"):
                    DataMatrix(values)

    def test_accepts_finite_entries_whose_sum_overflows(self):
        X = DataMatrix([[1e308, 1e308], [-1e308, 1e308]])
        assert X.values[0, 0] == 1e308
        assert as_vector([-1e308, -1e308])[1] == -1e308

    def test_rejects_wrong_ndim_and_empty(self):
        with pytest.raises(ValueError):
            DataMatrix([1.0, 2.0])
        with pytest.raises(ValueError):
            DataMatrix(np.empty((0, 3)))

    def test_values_are_read_only(self):
        X = DataMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            X.values[0, 0] = 9.0


    def test_writeable_input_is_copied(self):
        source = np.ones((2, 2))
        X = DataMatrix(source)
        source[0, 0] = 9.0
        assert X.values[0, 0] == 1.0 and source.flags.writeable

    def test_read_only_view_is_copied(self):
        base = np.ones((2, 3))
        view = base[:, :2]
        view.setflags(write=False)
        X = DataMatrix(view)
        base[0, 0] = 9.0
        assert X.values is not view and X.values[0, 0] == 1.0

    def test_read_only_owner_is_adopted(self):
        source = np.ones((2, 2))
        source.setflags(write=False)
        assert DataMatrix(source).values is source
        vector = np.arange(3.0)
        vector.setflags(write=False)
        assert as_vector(vector) is vector

    def test_adopted_array_still_checked(self):
        source = np.array([[1.0, np.nan]])
        source.setflags(write=False)
        with pytest.raises(ValueError, match="finite"):
            DataMatrix(source)
        with pytest.raises(DimensionMismatchError):
            as_vector(source)


class TestAsVector:
    def test_read_only_float64_copy(self):
        source = np.array([1, -2])
        v = as_vector(source)
        np.testing.assert_array_equal(v, [1.0, -2.0])
        assert v.dtype == np.float64 and not v.flags.writeable
        source[0] = 5
        assert v[0] == 1.0

    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatchError):
            as_vector([[1.0], [2.0]])

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            for index in (0, -1):
                values = np.ones(5)
                values[index] = bad
                with pytest.raises(ValueError, match="finite"):
                    as_vector(values)

    def test_rejects_wrapper_types(self):
        for wrapper in (
            DataMatrix(np.ones((3, 1))),
            Mask([1.0, 0.0]),
            ProbabilityVector([0.5, 0.5]),
        ):
            with pytest.raises(TypeError):
                as_vector(wrapper)
        with pytest.raises(TypeError):
            features(DataMatrix(np.ones((3, 1))), DataMatrix(np.ones((3, 1))))


class TestProbabilityVector:
    def test_exact_distribution(self):
        p = ProbabilityVector([0.25, 0.75])
        np.testing.assert_array_equal(p.values, [0.25, 0.75])

    def test_renormalizes_tiny_drift(self):
        p = ProbabilityVector([0.5, 0.5 + 1e-12])
        assert p.values.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError):
            ProbabilityVector([0.5, 0.6])

    def test_rejects_negative_and_empty_support(self):
        with pytest.raises(ValueError):
            ProbabilityVector([-0.1, 1.1])
        with pytest.raises(ValueError):
            ProbabilityVector([0.0, 0.0])

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            for index in (0, -1):
                values = np.full(4, 0.25)
                values[index] = bad
                with pytest.raises(ValueError, match="finite"):
                    ProbabilityVector(values)

    def test_rejects_matrix_and_empty_input(self):
        with pytest.raises(DimensionMismatchError):
            ProbabilityVector([[0.5, 0.5]])
        with pytest.raises(DimensionMismatchError):
            ProbabilityVector([])

    def test_support(self):
        p = ProbabilityVector([0.0, 1.0])
        np.testing.assert_array_equal(p.support(), [1])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=12))
    def test_normalized_input_round_trips(self, raw):
        arr = np.array(raw)
        p = ProbabilityVector(arr / arr.sum())
        assert p.values.sum() == pytest.approx(1.0, abs=1e-9)
        assert (p.values >= 0).all()


class TestMask:
    def test_binary_validation(self):
        m = Mask([1.0, 0.0, 1.0], kind="binary")
        assert m.nnz == 2
        with pytest.raises(ValueError):
            Mask([0.5, 1.0], kind="binary")

    def test_sketch_allows_fractions(self):
        m = Mask([0.0, 2.5], kind="sketch")
        assert m.nnz == 1

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Mask([1.0], kind="dense")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Mask([-1.0, 0.0], kind="sketch")


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(123, 4).normal(10_000)
        b = RngStream(123, 4).normal(10_000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).normal(8)
        b = RngStream(123, 1).normal(8)
        assert not np.array_equal(a, b)

    def test_substream_is_deterministic(self):
        assert RngStream(5).substream(3) == RngStream(5).substream(3)
        assert RngStream(5).substream(3) != RngStream(5).substream(4)

    @pytest.mark.parametrize("integer", [np.int64, np.uint64, np.int32])
    def test_numpy_integers_give_the_stream_of_an_int(self, integer):
        # the count rule admits numpy integers, and the mixed id overflows them
        pairs = [
            (RngStream(0, 5).substream(integer(3)), RngStream(0, 5).substream(3)),
            (RngStream(2, integer(7)).substream(1), RngStream(2, 7).substream(1)),
            (RngStream(integer(2), integer(7)), RngStream(2, 7)),
        ]
        for ours, theirs in pairs:
            assert ours == theirs
            np.testing.assert_array_equal(ours.normal(8), theirs.normal(8))

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0).substream(-2)


def test_row_norms_axis_aligned():
    np.testing.assert_allclose(row_norms(DataMatrix([[3.0, 0.0], [0.0, 4.0]])), [3.0, 4.0])


def test_row_norms_zero_matrix():
    np.testing.assert_array_equal(row_norms(DataMatrix(np.zeros((2, 2)))), [0.0, 0.0])


def test_row_norms_general():
    norms = row_norms(DataMatrix([[1.0, 1.0], [2.0, 2.0]]))
    np.testing.assert_allclose(norms, [np.sqrt(2.0), 2.0 * np.sqrt(2.0)])


def test_row_norms_match_naive_loop():
    rng = RngStream(11)
    X = DataMatrix(rng.normal((7, 5)))
    naive = [np.sqrt(sum(x * x for x in X.values[i])) for i in range(7)]
    np.testing.assert_allclose(row_norms(X), naive, rtol=1e-12)


@pytest.mark.parametrize(
    "d, n",
    # 16 columns put the block edges every 4096 rows; 20000 columns give
    # blocks of three rows and a last block of one.
    [(1, 16), (4095, 16), (4096, 16), (4097, 16), (8195, 16), (7, 20000)],
)
def test_row_norms_bit_identical_to_linalg_norm(d, n):
    values = RngStream(d).normal((d, n))
    np.testing.assert_array_equal(
        row_norms(DataMatrix(values)), np.linalg.norm(values, axis=1)
    )


def test_row_norms_bit_identical_in_fortran_order():
    values = np.asfortranarray(RngStream(12).normal((4097, 16)))
    X = DataMatrix(values)
    assert X.values.flags.f_contiguous
    np.testing.assert_array_equal(row_norms(X), np.linalg.norm(values, axis=1))


def test_row_norms_hold_no_matrix_sized_temporary(traced_peak):
    X = DataMatrix(RngStream(13).normal((16384, 64)))  # 8 MiB
    _, peak = traced_peak(row_norms, X)
    assert peak < 2**20


def test_row_norms_computed_once_and_shared():
    X = DataMatrix(RngStream(15).normal((6, 4)))
    norms = row_norms(X)
    assert row_norms(X) is norms
    assert not norms.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        norms[0] = 0.0


@pytest.mark.parametrize("count, width", [
    (0, 1), (1, 1), (2**15 + 1, 1), (1000, 3), (10, 2**14), (5, 2**20),
])
def test_blocks_cover_the_pass_in_order(count, width):
    step = max(1, core._BLOCK_ELEMENTS // width)
    blocks = list(core._blocks(count, width))
    assert [i for block in blocks for i in range(count)[block]] == list(range(count))
    assert all(0 < block.stop - block.start <= step for block in blocks)


def test_finiteness_checked_in_every_block():
    # 5 blocks of core._BLOCK_ELEMENTS = 2**15 entries, in both memory orders
    for shape, order in (((163840,), "C"), ((640, 256), "C"), ((640, 256), "F")):
        for bad in (np.nan, np.inf, -np.inf):
            for index in (0, 70_000, 140_000, -1):
                values = np.ones(shape, order=order)
                values.reshape(-1, order="A")[index] = bad
                with pytest.raises(ValueError, match="finite"):
                    DataMatrix(values) if len(shape) == 2 else as_vector(values)


def test_finiteness_check_holds_no_matrix_sized_mask(traced_peak):
    values = RngStream(14).normal((16384, 64))  # 8 MiB; a bool mask is 1 MiB
    values.setflags(write=False)
    _, peak = traced_peak(DataMatrix, values)
    assert peak < 2**18


def test_features_identity():
    np.testing.assert_array_equal(features(DataMatrix(np.eye(2)), [1.0, 1.0]), [1.0, 1.0])


def test_features_diagonal():
    got = features(DataMatrix([[3.0, 0.0], [0.0, 4.0]]), [2.0, 1.0])
    np.testing.assert_array_equal(got, [6.0, 4.0])


def test_features_zero_weights():
    np.testing.assert_array_equal(features(DataMatrix(np.eye(3)), np.zeros(3)), np.zeros(3))


def test_features_dimension_error():
    with pytest.raises(DimensionMismatchError):
        features(DataMatrix(np.eye(2)), [1.0, 2.0, 3.0])


def _length_and_budget_calls():
    """(call, error type, message) for every public entry point that checks
    a vector's length or an s budget, each called with one bad operand."""
    X = DataMatrix(np.arange(1.0, 13.0).reshape(4, 3))
    w4, w5, y3, y2 = np.ones(4), np.ones(5), np.ones(3), np.ones(2)
    p4, p5 = uniform_probabilities(4), uniform_probabilities(5)
    rng = RngStream(0)
    model = TinyMLP.init(4, 2, 1, "tanh", rng)
    snapshot = take_snapshot(model, X, y3)
    state = seed_state(4, 3, 0, steps=0)
    length = DimensionMismatchError
    budget = InvalidDensityError
    rows = "does not match 4 matrix rows"
    sketch = "budget must lie in [1, inf], got 0"
    return {
        "features": (lambda: features(X, w5), length, f"weight length 5 {rows}"),
        "optimal_probabilities": (
            lambda: optimal_probabilities(X, w5), length, f"weight length 5 {rows}"),
        "exact_expected_error/w": (
            lambda: exact_expected_error(X, w5, p4, 2), length,
            f"weight length 5 {rows}"),
        "exact_expected_error/p": (
            lambda: exact_expected_error(X, w4, p5, 2), length,
            f"distribution length 5 {rows}"),
        "theorem1_bound": (
            lambda: theorem1_bound(w4, w5, 2), length,
            "w_star length 5 does not match 4 initial weights"),
        "enumerate_exact_error/w": (
            lambda: enumerate_exact_error(X, w5, p4, 2), length,
            f"weight length 5 {rows}"),
        "enumerate_exact_error/p": (
            lambda: enumerate_exact_error(X, w4, p5, 2), length,
            f"distribution length 5 {rows}"),
        "mc_error_over_masks/w": (
            lambda: mc_error_over_masks(X, w5, p4, 2, 1, rng), length,
            f"weight length 5 {rows}"),
        "mc_error_over_masks/distribution": (
            lambda: mc_error_over_masks(X, w4, p5, 2, 1, rng), length,
            f"distribution length 5 {rows}"),
        "mc_error_over_data": (
            lambda: mc_error_over_data(w4, w5, 2, 3, 1, rng), length,
            "w_star length 5 does not match 4 initial weights"),
        "SyntheticDataset/y": (
            lambda: SyntheticDataset(X, y2, w4, 0.0), length,
            "label length 2 does not match 3 examples"),
        "SyntheticDataset/w": (
            lambda: SyntheticDataset(X, y3, w5, 0.0), length,
            f"weight length 5 {rows}"),
        "train_least_squares/y": (
            lambda: train_least_squares(X, y2, w4, 1), length,
            "label length 2 does not match 3 examples"),
        "train_least_squares/w0": (
            lambda: train_least_squares(X, y3, w5, 1), length,
            f"weight length 5 {rows}"),
        "synflow_scores": (
            lambda: synflow_scores(w4, w5), length,
            "weight length 5 does not match 4 probe inputs"),
        "snip_scores_l1": (
            lambda: snip_scores_l1(X, y2, w4), length,
            "label length 2 does not match 3 examples"),
        "TinyMLP": (
            lambda: TinyMLP(4, 2, 1, "tanh", w5), length,
            "theta length 5 does not match 10 parameters"),
        "take_snapshot": (
            lambda: take_snapshot(model, X, y2), length,
            "label length 2 does not match 3 outputs"),
        "train_linearized_gd": (
            lambda: train_linearized_gd(snapshot, y2, 1e-3, 1), length,
            "label length 2 does not match 3 outputs"),
        "TinyMLP.output_vector": (
            lambda: model.output_vector(DataMatrix(np.ones((5, 3)))), length,
            "input length 5 does not match 4 network inputs"),
        "sample_sketch_mask": (lambda: sample_sketch_mask(p4, 0, rng), budget, sketch),
        "mc_error_over_masks": (
            lambda: mc_error_over_masks(X, w4, p4, 0, 1, rng), budget, sketch),
        "exact_expected_error/s": (
            lambda: exact_expected_error(X, w4, p4, 0), budget, sketch),
        "lemma2_bound": (lambda: lemma2_bound(w4, 0), budget, sketch),
        "theorem1_bound/s": (lambda: theorem1_bound(w4, w4, 0), budget, sketch),
        "lemma4_uniform_bound": (lambda: lemma4_uniform_bound(w4, 0), budget, sketch),
        "enumerate_exact_error/s": (
            lambda: enumerate_exact_error(X, w4, p4, 0), budget, sketch),
        "mc_error_over_data/s": (
            lambda: mc_error_over_data(w4, w4, 0, 3, 1, rng), budget, sketch),
        **{
            f"{name}/s={s}": (call(s), budget, f"budget must lie in [1, 4], got {s}")
            for s in (0, 5)
            for name, call in (
                ("select_topk", lambda s: lambda: select_topk(w4, s)),
                ("select_randomized", lambda s: lambda: select_randomized(w4, s, rng)),
                ("run_prune_pipeline", lambda s: lambda: run_prune_pipeline(
                    state, "topk-synflow", s)),
            )
        },
        # a budget that is not an integer: a float, or a bool
        **{
            f"{name}/s={s!r}": (
                call(s), budget, f"budget must be an integer, got {s!r}")
            for s in (2.5, True)
            for name, call in (
                ("sample_sketch_mask", lambda s: lambda: sample_sketch_mask(
                    p4, s, rng)),
                ("mc_error_over_masks", lambda s: lambda: mc_error_over_masks(
                    X, w4, p4, s, 1, rng)),
                ("exact_expected_error", lambda s: lambda: exact_expected_error(
                    X, w4, p4, s)),
                ("lemma2_bound", lambda s: lambda: lemma2_bound(w4, s)),
                ("theorem1_bound", lambda s: lambda: theorem1_bound(w4, w4, s)),
                ("lemma4_uniform_bound", lambda s: lambda: lemma4_uniform_bound(
                    w4, s)),
                ("enumerate_exact_error", lambda s: lambda: enumerate_exact_error(
                    X, w4, p4, s)),
                ("mc_error_over_data", lambda s: lambda: mc_error_over_data(
                    w4, w4, s, 3, 1, rng)),
                ("select_topk", lambda s: lambda: select_topk(w4, s)),
                ("select_randomized", lambda s: lambda: select_randomized(w4, s, rng)),
                ("run_prune_pipeline", lambda s: lambda: run_prune_pipeline(
                    state, "topk-synflow", s)),
            )
        },
    }


_LENGTH_AND_BUDGET_CALLS = _length_and_budget_calls()


@pytest.mark.parametrize("site", sorted(_LENGTH_AND_BUDGET_CALLS))
def test_every_length_and_budget_check(site):
    call, error, message = _LENGTH_AND_BUDGET_CALLS[site]
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def _count_and_sign_calls():
    """(call, message) for every public entry point that checks a count
    against its minimum or a vector's signs, each called with one bad
    operand, and for a count that is not an integer at four of them; every
    one raises a plain ValueError."""
    X = DataMatrix(np.arange(1.0, 13.0).reshape(4, 3))
    w4, y3 = np.ones(4), np.ones(3)
    negative = np.array([1.0, -1.0, 1.0, 1.0])
    p4 = uniform_probabilities(4)
    rng = RngStream(0)
    model = TinyMLP.init(4, 2, 1, "tanh", rng)
    snapshot = take_snapshot(model, X, y3)
    trajectory = train_linearized_gd(snapshot, y3, 1.0 / snapshot.lambda_max, 0)

    def below(name, low):
        return f"{name} must be >= {low}, got {low - 1}"

    # a count that is not an integer: a float, nan, or a bool
    not_integer = {
        f"{site}/{k!r}": (
            lambda call=call, k=k: call(k), f"{name} must be an integer, got {k!r}")
        for site, name, call in [
            ("BoundReport", "trials",
             lambda k: BoundReport(0.0, 0.0, 1.0, "equality", k)),
            ("RngStream", "seed", lambda k: RngStream(k)),
            ("seed_state", "steps", lambda k: seed_state(4, 3, 0, steps=k)),
            ("gen_chi_input", "d", lambda k: gen_chi_input(k, rng)),
        ]
        for k in (float("nan"), 1.5, True)
    }
    return not_integer | {
        "RngStream/seed": (lambda: RngStream(-1), below("seed", 0)),
        "RngStream/stream": (lambda: RngStream(0, -1), below("stream", 0)),
        "RngStream.substream": (lambda: rng.substream(-1), below("k", 0)),
        "ProbabilityVector": (
            lambda: ProbabilityVector([1.5, -0.5]),
            "ProbabilityVector entries must be nonnegative"),
        "Mask": (lambda: Mask(negative), "Mask entries must be nonnegative"),
        "BoundReport": (
            lambda: BoundReport(0.0, 0.0, 1.0, "equality", 0), below("trials", 1)),
        "mc_error_over_masks": (
            lambda: mc_error_over_masks(X, w4, p4, 2, 0, rng), below("trials", 1)),
        "mc_error_over_data/x_trials": (
            lambda: mc_error_over_data(w4, w4, 2, 3, 0, rng), below("x_trials", 1)),
        "mc_error_over_data/n": (
            lambda: mc_error_over_data(w4, w4, 2, 0, 1, rng), below("n", 1)),
        "uniform_probabilities": (lambda: uniform_probabilities(0), below("d", 1)),
        "gen_chi_input/d": (lambda: gen_chi_input(0, rng), below("d", 1)),
        "gen_chi_input/n": (lambda: gen_chi_input(4, rng, 0), below("n", 1)),
        "gen_normal_X": (lambda: gen_normal_X(0, 3, rng), below("d", 1)),
        "gen_sparse_X": (lambda: gen_sparse_X(-1, 3, rng), "d must be >= 1, got -1"),
        "make_dataset": (lambda: make_dataset(4, 0, 0.0, rng), below("n", 1)),
        "train_least_squares": (
            lambda: train_least_squares(X, y3, w4, -1), below("steps", 0)),
        "seed_state/d": (lambda: seed_state(0, 3, 0), below("d", 1)),
        "seed_state/n": (lambda: seed_state(4, 0, 0), below("n", 1)),
        "seed_state/steps": (lambda: seed_state(4, 3, 0, steps=-1), below("steps", 0)),
        "TinyMLP/d_in": (lambda: TinyMLP(0, 2, 1, "tanh", w4), below("d_in", 1)),
        "TinyMLP/width": (lambda: TinyMLP(4, 0, 1, "tanh", w4), below("width", 1)),
        "TinyMLP/d_out": (lambda: TinyMLP(4, 2, 0, "tanh", w4), below("d_out", 1)),
        "empirical_ntk": (
            lambda: empirical_ntk(snapshot.jacobian, 0), below("width", 1)),
        "train_linearized_gd": (
            lambda: train_linearized_gd(snapshot, y3, 1e-3, -1), below("steps", 0)),
        "theorem2_report": (
            lambda: theorem2_report(model, snapshot, trajectory, X, 2, 0, rng),
            below("mask_trials", 1)),
        "synflow_scores": (
            lambda: synflow_scores(negative, w4),
            "probe input entries must be nonnegative"),
        "scores_to_probabilities": (
            lambda: scores_to_probabilities(negative),
            "score entries must be nonnegative"),
        "select_randomized": (
            lambda: select_randomized(negative, 2, rng),
            "score entries must be nonnegative"),
    }


_COUNT_AND_SIGN_CALLS = _count_and_sign_calls()


@pytest.mark.parametrize("site", sorted(_COUNT_AND_SIGN_CALLS))
def test_every_count_and_sign_check(site):
    call, message = _COUNT_AND_SIGN_CALLS[site]
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError
    assert str(caught.value) == message
