import dataclasses
import math

import numpy as np
import pytest

from entrobounds.bounds import check_dc, check_fannes, tightness_witness_af
from entrobounds.couplings import build_decomposition, diagonal_coupling, quantum_coupling
from entrobounds.dc_optimizer import (ConvexSetModel, dc_gradient, dc_minimize, dc_minimize_stack,
                                      kappa_bracket)
from entrobounds.entropies import relative_entropy, von_neumann_entropy
from entrobounds.gibbs import HamiltonianSpec, cutoff_decompose, sample_energy_constrained
from entrobounds.linalg import (PSD_ATOL, HermitianOperator, check_dense_dim, hermitian_stack,
                                trace_distance, trace_distances)
from entrobounds import states as st
from entrobounds.states import (
    BipartiteState,
    DensityOperator,
    StateValidationError,
    as_state,
    PureStack,
    StateStack,
    block_marginals,
    built_stack,
    density_stack,
    draw_pure_vectors,
    draw_qc,
    draw_state_matrices,
    embedded_stack,
    factored_marginals,
    factored_traces,
    marginal_of,
    maximally_entangled_state,
    partial_trace,
    partial_traces,
    pure_stack,
    sample_pure_bipartite,
    sample_pure_state,
    sample_qc_state,
    sample_state,
    vector_marginals,
)


class TestDensityOperator:
    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(StateValidationError, match="negative eigenvalue"):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateValidationError, match="trace"):
            DensityOperator(np.diag([0.5, 0.4]))

    def test_clamps_tiny_negative_noise(self):
        rho = DensityOperator(np.diag([1.0 + 1e-13, -1e-13]))
        assert rho.eigenvalues[-1] >= 0.0
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("vec", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0]])
    def test_pure_rejects_zero_and_non_finite_vectors(self, vec):
        with pytest.raises(ValueError, match="norm"):
            DensityOperator.pure(vec)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="non-finite"):
            DensityOperator(np.diag([np.inf, 0.0]))

    def test_built_state_is_held_to_the_trace_rule_only(self, solver_calls):
        rho = BipartiteState._built(np.diag([0.5, 0.25, 0.25, 1e-12]).astype(complex), (2, 2))
        assert type(rho) is BipartiteState and rho.dims == (2, 2)
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(StateValidationError, match="trace"):
            DensityOperator._built(np.diag([0.5, 0.4]).astype(complex))
        assert solver_calls == [], "decomposed"
        assert rho.eigenvalues[-1] == pytest.approx(1e-12, abs=1e-15)

    def test_pure_normalizes(self):
        rho = DensityOperator.pure([2.0, 0.0])
        np.testing.assert_allclose(rho.mat, np.diag([1.0, 0.0]), atol=1e-14)


class TestBipartiteState:
    def test_dims_must_factor_the_dimension(self):
        with pytest.raises(StateValidationError, match="dims 3x2 do not match operator dimension 4"):
            BipartiteState(DensityOperator.maximally_mixed(4), (3, 2))

    def test_takes_over_a_validated_state(self, solver_calls):
        rng = np.random.default_rng(31)
        states = [rho for _ in range(10)
                  for rho in (sample_state(16, 3, rng), sample_pure_state(16, rng))]
        spectra = [rho.eigenvalues for rho in states]
        solver_calls.clear()
        for rho, lam in zip(states, spectra):
            bs = BipartiteState(rho, (4, 4))
            assert isinstance(bs, DensityOperator) and isinstance(bs, HermitianOperator)
            assert np.array_equal(bs.mat, rho.mat)
            assert bs.eigenvalues is lam
        assert solver_calls == []


class TestPartialTrace:
    def test_product_state(self):
        a = np.diag([0.7, 0.3])
        b = np.diag([0.2, 0.3, 0.5])
        state = BipartiteState(DensityOperator(np.kron(a, b)), (2, 3))
        np.testing.assert_allclose(partial_trace(state, "A").mat, a, atol=1e-14)
        np.testing.assert_allclose(partial_trace(state, "B").mat, b, atol=1e-14)

    def test_maximally_entangled_marginals(self):
        phi = maximally_entangled_state(3)
        for keep in ("A", "B"):
            np.testing.assert_allclose(partial_trace(phi, keep).mat,
                                       np.eye(3) / 3, atol=1e-12)

    @pytest.mark.parametrize("state", [
        maximally_entangled_state(2),  # a factored state
        tightness_witness_af(300, 0.5)[0],  # one above the dense limit
        sample_qc_state(2, 3, np.random.default_rng(0)),  # a block state
        BipartiteState(np.eye(6) / 6, (2, 3)),  # a dense state
    ])
    def test_bad_keep(self, state):
        """A bad ``keep`` raises the error of ``partial_traces`` before any
        kernel runs: no matrix is built, whatever kind of state."""
        built = state._mat is not None
        with pytest.raises(ValueError, match="keep must be 'A' or 'B', got 'C'"):
            partial_trace(state, "C")
        assert (state._mat is not None) == built

    @pytest.mark.parametrize("keep", ["A", "B"])
    @pytest.mark.parametrize("eps", [0.05, 0.25, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_marginal_of_the_af_witness_builds_no_matrix(self, d, eps, keep):
        """The marginals of a factored state are the Gram forms of its
        factor, within 1e-14 of ``partial_traces`` over the dense matrix."""
        for state in tightness_witness_af(d, eps):
            marginal = partial_trace(state, keep)
            assert state._mat is None
            dense = partial_traces(state.mat, state.dims, keep)
            np.testing.assert_allclose(marginal.mat, DensityOperator(dense).mat,
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("keep", ["A", "B"])
    @pytest.mark.parametrize("d", [2, 3, 16, 300])
    def test_marginal_of_the_af_witness_is_maximally_mixed(self, d, keep):
        """Both AF witness states have A and B marginal 1/d, within 4 ulp
        beyond the rounding of the witness vector itself: the squared
        modulus of its entries (1, 2, 0 and 8 ulp off 1/d at d = 2, 3, 16 and
        300)."""
        eye = np.eye(d) / d
        for eps in (0.05, 0.25, 0.5, 0.9, 1.0):
            for state in tightness_witness_af(d, eps):
                marginal = marginal_of(state, keep)
                assert state._mat is None
                x = state.factor[0][0, 0]
                tol = 4 * np.spacing(1.0 / d) + abs(abs(x) ** 2 - 1.0 / d)
                assert np.abs(marginal - eye).max() <= tol

    @staticmethod
    def _factored_states(rng, dims, k):
        """Factored states of rank ``k`` on ``dims``: with and without a
        complement eigenvalue and a renormalized trace."""
        d = dims[0] * dims[1]
        v = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        lam = rng.random(k)
        lam = lam / lam.sum()
        parts = [(lam, 0.0), (lam * (1.0 + 4e-13), 0.0)]
        if k < d:
            parts += [(lam / 2, 0.5 / (d - k)), (lam / 2 * (1.0 + 4e-13), 0.5 / (d - k))]
        states = [BipartiteState.factored(v[:, :k], w, c, dims) for w, c in parts]
        assert [s._divisor is None for s in states] == [True, False, True, False][:len(states)]
        return states

    @pytest.mark.parametrize("keep", ["A", "B"])
    @pytest.mark.parametrize("dims", [(1, 4), (2, 3), (3, 2), (4, 1), (5, 5), (10, 48)])
    def test_marginal_of_a_factor_matches_the_dense_einsum(self, dims, keep):
        """Ranks 1 to 3, a complement eigenvalue and a renormalized trace:
        ``marginal_of`` a factored state on either side, with no matrix
        built, is within 1e-14 of the einsum over ``mat``."""
        rng = np.random.default_rng(dims)
        for k in range(1, min(dims[0] * dims[1], 3) + 1):
            for state in self._factored_states(rng, dims, k):
                marginal = marginal_of(state, keep)
                assert state._mat is None
                np.testing.assert_allclose(marginal, partial_traces(state.mat, dims, keep),
                                           rtol=0, atol=1e-14)

    @staticmethod
    def _stacked(states):
        """The stacked factors and recorded traces of factored states."""
        return ([np.stack([s._parts[j] for s in states]) for j in (1, 2, 3)]
                + [np.array([s._divisor or 1.0 for s in states])])

    @pytest.mark.parametrize("keep", ["A", "B"])
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4), (10, 48)])
    def test_factored_marginals_of_a_stack_match_the_dense_einsum(self, dims, keep):
        """Ranks 1 to 3, with and without a complement eigenvalue and a
        renormalized trace, stacked: each marginal is within 1e-14 of the
        einsum over its own state's ``mat``."""
        rng = np.random.default_rng([37, *dims])
        for k in range(1, 4):
            states = self._factored_states(rng, dims, k)
            marginals = factored_marginals(*self._stacked(states), dims, keep)
            for state, marginal in zip(states, marginals):
                np.testing.assert_allclose(marginal, partial_traces(state.mat, dims, keep),
                                           rtol=0, atol=1e-14)

    @pytest.mark.parametrize("keep", ["A", "B"])
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4), (10, 48)])
    def test_factored_marginals_of_a_stack_are_those_of_each_state_alone(self, dims, keep):
        """Ranks 1 to 3, with and without a complement eigenvalue and a
        renormalized trace: each marginal of the stack has the bits of
        ``marginal_of`` its state alone, on which a campaign's records
        agree with the scalar checks."""
        rng = np.random.default_rng([41, *dims])
        for k in range(1, 4):
            states = self._factored_states(rng, dims, k)
            marginals = factored_marginals(*self._stacked(states), dims, keep)
            for state, marginal in zip(states, marginals):
                assert marginal.tobytes() == marginal_of(state, keep).tobytes()

    def test_vector_marginals_match_partial_trace(self):
        rng = np.random.default_rng(7)
        psi = sample_pure_bipartite(3, 4, rng)
        v = psi.eigenvectors[:, 0]
        m_a, m_b = vector_marginals(v, 3, 4)
        np.testing.assert_allclose(m_a, partial_trace(psi, "A").mat, atol=1e-10)
        np.testing.assert_allclose(m_b, partial_trace(psi, "B").mat, atol=1e-10)


class TestSampling:
    def test_rank_one_is_pure(self):
        rho = sample_state(4, 1, np.random.default_rng(0))
        assert rho.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)

    def test_rank_bounds(self):
        with pytest.raises(ValueError, match="rank"):
            sample_state(3, 4, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        a = sample_state(4, 4, np.random.default_rng(42))
        b = sample_state(4, 4, np.random.default_rng(42))
        assert np.array_equal(a.mat, b.mat)

    def test_mean_spectrum_is_uniform(self):
        # HS measure (rank == dim) has mean spectrum 1/d
        rng = np.random.default_rng(6)
        acc = np.zeros(4)
        n = 4000
        for _ in range(n):
            acc += sample_state(4, 4, rng).eigenvalues
        mean_max = acc[0] / n
        assert abs(acc.sum() / n - 1.0) < 1e-12
        assert 0.4 < mean_max < 0.7  # far from both pure (1) and uniform (0.25)

    def test_pure_state_sampler(self):
        rho = sample_pure_state(5, np.random.default_rng(1))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_qc_state_is_block_diagonal(self):
        state = sample_qc_state(2, 3, np.random.default_rng(2))
        assert state.dims == (2, 3)
        m = state.mat.reshape(2, 3, 2, 3)
        for j in range(3):
            for k in range(3):
                if j != k:
                    assert np.abs(m[:, j, :, k]).max() < 1e-14

    def test_qc_b_marginal_is_diagonal(self):
        state = sample_qc_state(3, 2, np.random.default_rng(3))
        b = partial_trace(state, "B").mat
        assert np.abs(b - np.diag(np.diag(b))).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d_a, d_x", [(2, 2), (3, 2), (2, 5), (8, 8)])
    def test_qc_state_is_held_as_its_blocks(self, d_a, d_x, seed, solver_calls):
        """A qc state holds its d_x blocks ``p_x rho_x`` and their spectra
        ``p_x spec(rho_x)``: validating it runs only the blocks' eigvalsh, and
        its lazy ``mat`` is, bit for bit, the kron sum of the weighted
        blocks."""
        rng = np.random.default_rng([d_a, d_x, seed])
        state = sample_qc_state(d_a, d_x, rng)
        assert solver_calls == [("eigvalsh", (d_x, d_a, d_a))]
        assert state._mat is None and state.block[0].shape == (d_x, d_a)
        dense = sum(np.kron(block, np.diag(np.eye(d_x)[x]).astype(complex))
                    for x, block in enumerate(state.block[1]))
        assert state.mat.tobytes() == dense.tobytes()
        assert state.trace() == np.trace(dense).real
        np.testing.assert_allclose(state.eigenvalues, np.linalg.eigvalsh(dense)[::-1],
                                   rtol=0, atol=1e-15)
        assert solver_calls[1:] == [("eigvalsh", dense.shape)]

    @pytest.mark.parametrize("seed", range(4))
    def test_block_marginals_are_the_dense_partial_traces(self, seed):
        """``marginal_of`` the B side of a block state (qc, energy-padded and
        blocks on index sets that mix A indices, in any order) builds no
        matrix and is bit for bit the einsum over ``mat``; ``block_marginals`` of the stack
        of their blocks is each state's."""
        rng = np.random.default_rng(seed)
        states = [sample_qc_state(4, 3, rng), sample_qc_state(3, 4, rng)]
        h = HamiltonianSpec.oscillators([1.0], n_max=9)
        states.append(sample_energy_constrained(h, 4.0, d_b=3, rng=rng))
        index = rng.permutation(12)[:9].reshape(3, 3)
        blocks = [sample_state(3, 3, rng).mat / 3 for _ in range(3)]
        states.append(BipartiteState.embedded(index, blocks, 12, (4, 3)))
        for state in states:
            marginal = marginal_of(state, "B")
            assert state._mat is None
            assert marginal.tobytes() == partial_traces(state.mat, state.dims, "B").tobytes()
            index, mats = state.block[:2]
            stacked = block_marginals(index, np.stack([mats, mats]), state.dims)
            assert stacked.tobytes() == np.stack([marginal, marginal]).tobytes()


class TestEntryRule:
    """Every public function that takes a state takes it through
    ``as_state`` or ``state_pair``: an array is validated into the state
    it stands for, an operator that is no state raises at the entry, and
    a state of the wrong dimension raises ``dimension mismatch``."""

    MODEL = ConvexSetModel([np.eye(3) / 3, np.diag([0.5, 0.3, 0.2])])
    GAMMA = DensityOperator.diagonal([0.5, 0.3, 0.2])
    LEVELS = HamiltonianSpec.explicit([0.0, 1.0, 10.0])

    # name: (call on (rho, sigma), number of state arguments, has a dimension to match)
    ENTRIES = {
        "von_neumann_entropy": (lambda r, s: von_neumann_entropy(r), 1, False),
        "relative_entropy": (lambda r, s: relative_entropy(r, TestEntryRule.GAMMA), 1, True),
        "build_decomposition": (build_decomposition, 2, True),
        "quantum_coupling": (quantum_coupling, 2, True),
        "diagonal_coupling": (diagonal_coupling, 2, True),
        "check_fannes": (check_fannes, 2, True),
        "check_dc": (lambda r, s: check_dc(r, s, TestEntryRule.MODEL), 2, True),
        "dc_minimize": (lambda r, s: dc_minimize(r, TestEntryRule.MODEL), 1, True),
        "dc_minimize_stack": (lambda r, s: dc_minimize_stack([r], TestEntryRule.MODEL), 1, True),
        "kappa_bracket": (lambda r, s: kappa_bracket(TestEntryRule.MODEL, [r]), 1, True),
        "dc_gradient": (lambda r, s: dc_gradient(r, [0.5, 0.5], TestEntryRule.MODEL), 1, True),
        "cutoff_decompose": (lambda r, s: cutoff_decompose(r, TestEntryRule.LEVELS, 5.0, 0.9),
                             1, True),
    }

    @staticmethod
    def _plain(x):
        """A result as nested tuples of bytes and numbers, comparable by ``==``."""
        if isinstance(x, (HermitianOperator, np.ndarray)):
            return (type(x).__name__, np.asarray(getattr(x, "mat", x)).tobytes())
        if dataclasses.is_dataclass(x):
            return tuple(TestEntryRule._plain(getattr(x, f.name)) for f in dataclasses.fields(x))
        if isinstance(x, (list, tuple)):
            return tuple(TestEntryRule._plain(v) for v in x)
        return x

    @pytest.mark.parametrize("name", ENTRIES)
    def test_entry_takes_a_state_through_as_state(self, name):
        call, n_states, matched = self.ENTRIES[name]
        rng = np.random.default_rng(8)
        rho, sigma = (np.array(sample_state(3, 3, rng).mat) for _ in range(2))
        expected = call(DensityOperator(rho), DensityOperator(sigma))
        assert self._plain(call(rho, sigma)) == self._plain(expected)
        for slot in range(n_states):
            args = [rho, sigma]
            args[slot] = np.diag([0.6, 0.4, 0.2])  # PSD, of trace 1.2
            with pytest.raises(StateValidationError, match=r"trace 1\.2"):
                call(*args)
        if matched:
            with pytest.raises(ValueError, match="dimension mismatch"):
                call(DensityOperator.maximally_mixed(2), DensityOperator(sigma))

    def test_as_state_takes_a_state_as_it_is(self):
        rho = sample_state(3, 3, np.random.default_rng(1))
        assert as_state(rho) is rho


def _with_spectrum(rng, lam):
    """A matrix of spectrum ``lam`` in a random unitary basis."""
    d = len(lam)
    q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return (q * lam) @ q.conj().T


class TestDensityStack:
    """``density_stack`` is ``DensityOperator`` element by element: the same
    bits on every path, and the same error for the first rejected matrix."""

    D = 16

    def _paths(self):
        rng = np.random.default_rng(31)
        clean = draw_state_matrices(self.D, self.D, [rng])[0]
        lam = rng.random(self.D)
        lam[-1] = 0.0
        lam /= lam.sum()
        lam[-1] = -5e-11
        clamped = _with_spectrum(rng, lam)
        renormalized = draw_state_matrices(self.D, self.D, [rng])[0] * (1.0 + 1e-12)
        rank_deficient = draw_state_matrices(self.D, 3, [rng])[0]
        return clean, clamped, renormalized, rank_deficient

    def test_every_path_matches_the_constructor_bit_for_bit(self):
        clean, clamped, renormalized, rank_deficient = mats = self._paths()
        assert -1e-10 < np.linalg.eigvalsh(clamped).min() < 0.0
        assert np.linalg.eigvalsh(renormalized).min() > 0.0
        assert abs(np.trace(renormalized).real - 1.0) > 1e-14
        stack = density_stack(np.stack(mats))
        for j, m in enumerate(mats):
            rho = DensityOperator(m)
            assert stack.mats[j].tobytes() == rho.mat.tobytes()
            assert stack.eigenvalues[j].tobytes() == rho.eigenvalues.tobytes()
        assert stack.eigenvalues[1, -1] == 0.0  # clamped
        assert stack.eigenvalues[2].sum() == pytest.approx(1.0, abs=1e-15)  # renormalized

    def test_full_rank_states_call_no_vector_solver(self, solver_calls):
        """Validating states reads their spectra alone: one ``eigvalsh`` of
        the stack, and ``eigh`` only when the eigenvectors are kept."""
        clean, _, renormalized, _ = self._paths()
        mats = np.stack([clean, renormalized, clean[::-1, ::-1]])
        solver_calls.clear()
        density_stack(mats)
        assert solver_calls == [("eigvalsh", mats.shape)]
        solver_calls.clear()
        density_stack(mats, vectors=True)
        assert solver_calls == [("eigvalsh", mats.shape), ("eigh", mats.shape)]

    def test_a_clamped_state_alone_is_decomposed_with_vectors(self, solver_calls):
        """The clamp reads the eigenvectors of its one state, as the
        constructor does, and clamps the ``eigvalsh`` spectrum with them:
        every state keeps the constructor's bits."""
        clean, clamped, renormalized, _ = self._paths()
        mats = np.stack([clean, clamped, renormalized])
        solver_calls.clear()
        stack = density_stack(mats)
        assert solver_calls == [("eigvalsh", mats.shape), ("eigh", (self.D, self.D))]
        assert stack.eigenvectors is None
        for j, m in enumerate(mats):
            rho = DensityOperator(m)
            assert stack.mats[j].tobytes() == rho.mat.tobytes()
            assert stack.eigenvalues[j].tobytes() == rho.eigenvalues.tobytes()
        assert stack.eigenvalues[1, -1] == 0.0  # clamped

    @pytest.mark.parametrize("defect", ["non-finite", "non-Hermitian", "negative", "trace"])
    def test_the_first_rejected_matrix_raises_its_constructor_error(self, defect):
        clean = self._paths()[0]
        rng = np.random.default_rng(32)
        bad = clean.copy()
        if defect == "non-finite":
            bad[3, 5] = np.nan
        elif defect == "non-Hermitian":
            bad[0, 1] += 1e-6
        elif defect == "negative":
            lam = rng.random(self.D)
            lam /= lam.sum()
            lam[0] += 1e-9
            lam[-1] = -1e-9
            bad = _with_spectrum(rng, lam)
        else:
            bad *= 1.0 + 1e-7
        with pytest.raises(ValueError) as scalar:
            DensityOperator(bad)
        # a later rejected matrix of another kind does not mask the first
        later = clean * 2.0
        with pytest.raises(ValueError) as stacked:
            density_stack(np.stack([clean, bad, later]))
        assert type(stacked.value) is type(scalar.value)
        assert str(stacked.value) == str(scalar.value)

    def test_built_states_are_built_stack_element_by_element(self):
        """``DensityOperator._built`` of each matrix of a stack, one of them
        renormalized, has the bits of its row of ``built_stack``; a trace
        off from 1 raises the same error."""
        rng = np.random.default_rng(35)
        mats = draw_state_matrices(4, 2, [rng, rng])
        mats[1] *= 1.0 + 1e-12
        stack = built_stack(mats)
        for j, m in enumerate(mats):
            assert stack[j].tobytes() == DensityOperator._built(m).mat.tobytes()
        assert np.trace(stack[1]).real == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(StateValidationError, match="trace") as scalar:
            DensityOperator._built(mats[0] * 1.5)
        with pytest.raises(StateValidationError) as stacked:
            built_stack(np.stack([mats[0], mats[0] * 1.5]))
        assert str(stacked.value) == str(scalar.value)

    @pytest.mark.parametrize("dims", [(3, 3), (2, 5)])
    def test_a_marginals_of_a_pure_stack_are_the_partial_traces_of_the_constructed_states(
            self, dims):
        """``check_cor_pure_stack``'s A marginals, ``factored_marginals`` of a
        pure stack as its factors ``(v, [l], 0)`` with their recorded traces,
        of a unit vector and of one whose trace the trace rule renormalizes
        (``factored_traces``), and of hand-built weights l that are not
        1 / trace (kept, or renormalized): each is within 1e-14 of the
        partial trace of the state ``factored`` builds, and has the bits of
        ``marginal_of`` that state alone; ``pure_stack`` is
        ``DensityOperator.pure``."""
        rng = np.random.default_rng(36)
        shape = (2, dims[0] * dims[1])
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        unit = pure_stack(raw)
        vecs = unit.vectors * np.array([[1.0], [np.sqrt(1.0 + 3e-14)]])
        pure = PureStack(vecs, factored_traces(vecs[:, :, None], np.ones((2, 1))), np.ones(2))
        assert pure.traces[0] == 1.0 and pure.traces[1] != 1.0
        stacks = [(pure, [BipartiteState.factored(v[:, None], [1.0], 0.0, dims) for v in vecs])]
        assert pure.weights.tolist() == [s.factor[1][0] for s in stacks[0][1]]
        weights = np.array([1.0 + 4e-15, 1.0 + 3e-14])
        states = [BipartiteState.factored(unit.vectors[j, :, None], [w], 0.0, dims)
                  for j, w in enumerate(weights)]
        assert states[0]._divisor is None and states[1]._divisor is not None
        held = PureStack(unit.vectors, np.array([1.0, states[1]._divisor]), weights)
        assert held.weights.tolist() == [s.factor[1][0] for s in states]
        stacks.append((held, states))
        for stack, states in stacks:
            marginals = factored_marginals(stack.vectors[:, :, None], stack.scales[:, None],
                                           np.zeros(2), stack.traces, dims, "A")
            for state, marginal in zip(states, marginals):
                np.testing.assert_allclose(marginal, partial_traces(state.mat, dims, "A"),
                                           rtol=0, atol=1e-14)
                assert marginal.tobytes() == marginal_of(state, "A").tobytes()
        for v, w, r in zip(unit.vectors, unit.weights, raw):
            alone = DensityOperator.pure(r)
            assert v.tobytes() == alone.factor[0][:, 0].tobytes() and w == alone.factor[1][0]

    def test_embedded_blocks_match_the_padded_constructor(self):
        """A block whose padded state has trace 1 + 1e-12 is renormalized
        as ``DensityOperator.embedded`` renormalizes it: the same block
        matrix, the same nonzero spectrum and the same trace distance."""
        rng = np.random.default_rng(34)
        index, dim = np.array([0, 2, 3]), 7
        blocks = draw_state_matrices(3, 3, [rng, rng])
        blocks[1] *= 1.0 + 1e-12
        mats, lam, _ = hermitian_stack(blocks)
        stack = embedded_stack(index[None], StateStack(mats[:, None], lam[:, None]), dim)
        padded = [DensityOperator.embedded(index, b, dim) for b in blocks]
        for j, rho in enumerate(padded):
            assert stack.mats[j].tobytes() == rho.block[1].tobytes()
            assert stack.eigenvalues[j, 0].tobytes() == rho.eigenvalues[:3].tobytes()
        assert abs(padded[1].trace() - 1.0) < 1e-15  # renormalized
        eps = trace_distances(stack.mats[:1], stack.mats[1:], dim)
        assert eps[0] == trace_distance(*padded)


# -- reference rules and draws --------------------------------------------------
#
# The state rule and the samplers' normal fills as they were before the rule
# became masks over the stack and each case's normals one fill, and the
# draws' complex matrices, Hilbert-Schmidt scaling and renormalization as
# they were before they were written in place, kept verbatim (renamed) as
# the references they must match bit for bit.


def ref_state_rule(lam_min: float, tr: float) -> bool:
    if lam_min < -PSD_ATOL:
        raise StateValidationError(f"negative eigenvalue {lam_min:.3e} beyond tolerance")
    if abs(tr - 1.0) > st.TRACE_ATOL:
        raise StateValidationError(f"trace {tr!r} is not 1")
    return abs(tr - 1.0) > st.RENORM_ATOL


def ref_state_rules(lam_min, tr) -> np.ndarray:
    lam_min = np.broadcast_to(lam_min, tr.shape)
    return np.array([ref_state_rule(m, t) for m, t in zip(lam_min.tolist(), tr.tolist())],
                    dtype=bool)


def ref_normals(rng, part) -> None:
    rng.standard_normal(out=part[0])
    rng.standard_normal(out=part[1])


def ref_complex(parts) -> np.ndarray:
    return (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2)


def ref_hs_matrices(g) -> np.ndarray:
    m = g @ g.conj().swapaxes(1, 2)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def ref_symmetrized(mats):
    return (mats + mats.conj().swapaxes(-1, -2)) / 2


def ref_renormalize(mats, lam, tr, which):
    rows = np.flatnonzero(which)
    mats[rows] = ref_symmetrized(mats[rows] / tr[rows].reshape(-1, *(1,) * (mats.ndim - 1)))
    if lam is not None:
        lam[rows] /= tr[rows].reshape(-1, *(1,) * (lam.ndim - 1))


def ref_ginibre(rngs, n, m) -> np.ndarray:
    check_dense_dim(n)
    parts = np.empty((len(rngs), 2, n, m))
    for part, rng in zip(parts, rngs):
        ref_normals(np.random.default_rng(rng), part)
    return ref_complex(parts)


def ref_draw_qc(d_a: int, d_x: int, rngs):
    check_dense_dim(d_a)
    weights = np.empty((len(rngs), d_x))
    parts = np.empty((len(rngs), d_x, 2, d_a, d_a))
    for p, part, rng in zip(weights, parts, rngs):
        rng = np.random.default_rng(rng)
        p[:] = rng.dirichlet(np.ones(d_x))
        for block in part:
            ref_normals(rng, block)
    blocks = ref_hs_matrices(ref_complex(parts.reshape(-1, 2, d_a, d_a)))
    return weights, blocks.reshape(len(rngs), d_x, d_a, d_a)


class TestStateRuleMasks:
    """``_state_rules`` applies the state rule as masks over a stack: the
    renormalization flags of the per-state rule, and the error of its first
    rejected state in stack order; NaN fails both comparisons."""

    def test_nan_fails_the_scalar_rule(self):
        with pytest.raises(StateValidationError, match="trace nan is not 1"):
            st._state_rule(0.0, float("nan"))
        with pytest.raises(StateValidationError, match="negative eigenvalue nan beyond tolerance"):
            st._state_rule(float("nan"), 1.0)

    def test_nan_fails_the_stacked_rule(self):
        with pytest.raises(StateValidationError, match="trace nan is not 1"):
            st._state_rules(0.0, np.array([1.0, math.nan]))
        with pytest.raises(StateValidationError, match="negative eigenvalue nan beyond tolerance"):
            st._state_rules(np.array([0.0, math.nan]), np.array([1.0, 1.0]))

    def test_flags_match_the_per_state_rule(self):
        rng = np.random.default_rng(39)
        offsets = np.concatenate([[0.0, 1e-14, -1e-14, 2e-14, -2e-14, 9e-9, -9e-9],
                                  10.0 ** rng.uniform(-17, -8.1, 5000) * rng.choice([-1, 1], 5000)])
        tr = 1.0 + offsets
        lam_min = np.concatenate([[0.0, -PSD_ATOL, -0.0, 1.0, -1e-11],
                                  rng.uniform(-1e-10, 1, 5002)])
        assert st._state_rules(lam_min, tr).tolist() == ref_state_rules(lam_min, tr).tolist()
        assert st._state_rules(0.0, tr).tolist() == ref_state_rules(0.0, tr).tolist()
        assert st._state_rules(0.0, tr).dtype == bool

    @pytest.mark.parametrize("lam_min, tr, message", [
        ([0.0, -1e-9, 0.0], [1.0, 1.0, 2.0], "negative eigenvalue -1.000e-09 beyond tolerance"),
        ([0.0, 0.0, -1.0], [1.0, 1.5, 1.0], r"trace 1\.5 is not 1"),
        ([0.0, -1.0, 0.0], [1.0, 1.5, 1.0], "negative eigenvalue -1.000e\\+00 beyond"),
    ])
    def test_the_first_rejected_state_raises_its_error(self, lam_min, tr, message):
        lam_min, tr = np.array(lam_min), np.array(tr)
        with pytest.raises(StateValidationError, match=message):
            ref_state_rules(lam_min, tr)
        with pytest.raises(StateValidationError, match=message):
            st._state_rules(lam_min, tr)

    def test_no_valid_state_calls_the_per_state_rule(self, monkeypatch):
        calls, rule = [], st._state_rule
        monkeypatch.setattr(st, "_state_rule", lambda *a: calls.append(a) or rule(*a))
        sample_state(3, 3, np.random.default_rng(2))
        density_stack(draw_state_matrices(3, 3, [np.random.default_rng(2)] * 4))
        DensityOperator._built(np.eye(3) / 3)
        assert calls == []
        with pytest.raises(StateValidationError, match=r"trace 1\.2 is not 1"):
            DensityOperator(np.diag([0.6, 0.4, 0.2]))
        assert len(calls) == 1


class TestNormalFills:
    """One ``standard_normal(out=...)`` fill of a C-contiguous buffer draws
    the stream that one fill per real and imaginary part of each block
    draws."""

    @pytest.mark.parametrize("shape", [(2, 3, 3), (5, 2, 4, 4), (2, 128, 128)])
    def test_one_fill_is_the_per_part_fills(self, shape):
        whole, parts = np.empty(shape), np.empty(shape)
        np.random.default_rng(7).standard_normal(out=whole)
        rng = np.random.default_rng(7)
        for part in parts.reshape(-1, *shape[-2:]):
            rng.standard_normal(out=part)
        assert whole.tobytes() == parts.tobytes()

    @pytest.mark.parametrize("n, m", [(3, 3), (4, 1), (16, 16), (128, 128)])
    def test_ginibre_draws_as_before(self, n, m):
        got = st._ginibre([np.random.default_rng(k) for k in range(3)], n, m)
        expected = ref_ginibre([np.random.default_rng(k) for k in range(3)], n, m)
        assert got.tobytes() == expected.tobytes()
        vecs = draw_pure_vectors(n, [np.random.default_rng(5)])
        assert vecs.tobytes() == ref_ginibre([np.random.default_rng(5)], n, 1)[:, :, 0].tobytes()

    @pytest.mark.parametrize("d_a, d_x", [(2, 2), (3, 3), (4, 2), (8, 8)])
    def test_qc_draws_as_before(self, d_a, d_x):
        got = draw_qc(d_a, d_x, [np.random.default_rng(k) for k in range(4)])
        expected = ref_draw_qc(d_a, d_x, [np.random.default_rng(k) for k in range(4)])
        assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]

    def test_qc_weights_are_numpys_dirichlet(self):
        """The exponentials normalized by their sequential sum are
        ``rng.dirichlet(np.ones(k))`` bit for bit, and leave the generator
        where it leaves it."""
        for k in range(2, 20):
            rngs = [np.random.default_rng([k, seed]) for seed in range(40)]
            weights, _ = draw_qc(1, k, rngs)
            for seed, (w, rng) in enumerate(zip(weights, rngs)):
                ref = np.random.default_rng([k, seed])
                assert w.tobytes() == ref.dirichlet(np.ones(k)).tobytes()
                ref.standard_normal(2 * k)
                assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()


def _read_only(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


class TestFrozenDraws:
    """The draws, the Hilbert-Schmidt scaling and the renormalization,
    written in place, give the bits of the formulas they replaced (frozen
    above), which also pins numpy's complex division by a real ``t`` to
    ``x * fl(1/t)``; they only read their input."""

    SIZES = [(n, d) for n in (1, 5) for d in (1, 2, 3, 17, 64, 128)]

    @pytest.mark.parametrize("n, d", SIZES)
    def test_complex_normals_are_the_complex_division(self, n, d):
        normals = _read_only(np.random.default_rng(d).standard_normal((n, 2, d, d)))
        before = normals.tobytes()
        assert st._complex_normals(normals).tobytes() == ref_complex(normals).tobytes()
        assert normals.tobytes() == before

    @pytest.mark.parametrize("n, d", SIZES)
    def test_hs_matrices_are_the_division_by_the_trace(self, n, d):
        rng = np.random.default_rng(100 + d)
        for rank in sorted({1, d}):
            g = _read_only(ref_complex(rng.standard_normal((n, 2, d, rank))))
            before = g.tobytes()
            assert st._hs_matrices(g).tobytes() == ref_hs_matrices(g).tobytes()
            assert g.tobytes() == before
        rngs = [np.random.default_rng(k) for k in range(n)]
        expected = ref_hs_matrices(ref_ginibre([np.random.default_rng(k) for k in range(n)], d, d))
        assert draw_state_matrices(d, d, rngs).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, d", SIZES)
    def test_renormalize_divides_then_symmetrizes(self, n, d):
        rng = np.random.default_rng(200 + d)
        g = ref_complex(rng.standard_normal((n, 2, d, d)))
        mats = ref_symmetrized(g @ g.conj().swapaxes(1, 2))
        tr = _read_only(1.0 + rng.uniform(-1e-9, 1e-9, n))
        lam = rng.uniform(0.0, 1.0, (n, d))
        which = _read_only(rng.uniform(size=n) < 0.6)
        got, got_lam, ref, ref_lam = mats.copy(), lam.copy(), mats.copy(), lam.copy()
        st._renormalize(got, got_lam, tr, which)
        ref_renormalize(ref, ref_lam, tr, which)
        assert got.tobytes() == ref.tobytes() and got_lam.tobytes() == ref_lam.tobytes()
        blocks, ref_blocks = mats[:, None].copy(), mats[:, None].copy()
        st._renormalize(blocks, None, tr, which)
        ref_renormalize(ref_blocks, None, tr, which)
        assert blocks.tobytes() == ref_blocks.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 17, 64])
    def test_a_state_alone_renormalizes_as_before(self, d):
        g = ref_complex(np.random.default_rng(300 + d).standard_normal((1, 2, d, d)))
        m = ref_hs_matrices(g)[0] * (1.0 + 1e-12)
        sym = ref_symmetrized(m)
        tr = np.trace(sym).real
        assert abs(tr - 1.0) > st.RENORM_ATOL
        state = DensityOperator(_read_only(m))
        assert state.mat.tobytes() == ref_symmetrized(sym / tr).tobytes()
        stacked = density_stack(_read_only(m[None]))
        assert stacked.mats[0].tobytes() == state.mat.tobytes()
        op = HermitianOperator._block_diagonal(d, np.arange(d)[None], sym[None], np.ones((1, d)))
        block_tr = op.trace()
        block = DensityOperator(op)
        assert block.block[1].tobytes() == ref_symmetrized(sym[None] / block_tr).tobytes()

    def test_density_stack_only_reads_its_input(self):
        mats = _read_only(draw_state_matrices(3, 3, [np.random.default_rng(k) for k in range(6)]))
        before = mats.tobytes()
        stack = density_stack(mats, vectors=True)
        assert mats.tobytes() == before and not np.shares_memory(stack.mats, mats)
        assert not np.shares_memory(built_stack(mats), mats)
        assert mats.tobytes() == before
