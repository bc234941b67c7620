import numpy as np
import pytest

from ehrelay import channel
from ehrelay.channel import (
    Scenario,
    effective_subchannels,
    generate,
)
from oracles import charpoly_eigenvalues


def channel_matrices(scen, rng):
    """Redraw the hop-1 and hop-2 matrices behind ``generate(scen, rng)``.

    Consumes the random stream in ``generate``'s order (every hop-1
    subcarrier, then every hop-2 one; real part before imaginary), so for
    the same seed the matrices are the ones ``generate`` decomposed.
    """

    def hop(rows, cols, distance):
        scale = np.sqrt(max(distance, 1.0) ** (-scen.pathloss_exp) / 2.0)
        return tuple(
            scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
            for _ in range(scen.k_subcarriers)
        )

    return hop(scen.n_r, scen.n_s, scen.d_sr), hop(scen.n_d, scen.n_r, scen.d_rd)


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_s", 0),
            ("n_r", -1),
            ("k_subcarriers", 0),
            ("bandwidth_hz", 0.0),
            ("p_source", -2.0),
            ("eta", 0.0),
            ("eta", 1.5),
            ("phi", 0.0),
            ("phi", 1.0),
            ("d_sd", 0.0),
            ("noise_total_w", 0.0),
            ("pathloss_exp", -4.0),
            ("pathloss_exp", np.nan),
            ("bandwidth_hz", np.inf),
            ("p_source", np.inf),
            ("d_sd", np.inf),
            ("noise_total_w", np.inf),
            ("n_s", 2.5),
            ("n_d", 1.0),
            ("k_subcarriers", 2.0),
            ("n_s", True),
            ("n_r", True),
            ("n_d", True),
            ("k_subcarriers", True),
            ("seed", -1),
            ("seed", True),
            ("seed", 2.5),
        ],
    )
    def test_invalid_field_named_in_error(self, field, value):
        with pytest.raises(ValueError, match=field):
            Scenario(**{field: value})

    def test_derived_noise_per_subchannel(self):
        scen = Scenario(k_subcarriers=4, noise_total_w=1e-6)
        assert scen.noise_per_subchannel == pytest.approx(2.5e-7)

    def test_n_streams_is_min(self):
        assert Scenario(n_s=3, n_r=2, n_d=4).n_streams == 2

    def test_numpy_integer_counts_accepted(self):
        scen = Scenario(n_s=np.int64(3), k_subcarriers=np.int32(4))
        assert scen.n_streams == 2 and scen.noise_per_subchannel == pytest.approx(2.5e-7)


class TestGenerate:
    def test_entry_variance_matches_pathloss(self):
        # phi = 0.5, exponent 4.  At d_sd = 4 each hop spans 2 reference
        # distances, so the per-entry power is 2**-4 = 1/16; at d_sd = 1 a
        # hop spans half the reference distance and has unit gain, since
        # path loss never amplifies.  With 2x2 hops both singular values
        # are kept, so a subcarrier's gains add up to its matrix's power.
        for d_sd, expected in ((4.0, 1.0 / 16.0), (1.0, 1.0)):
            scen = Scenario(n_s=2, n_r=2, k_subcarriers=1, phi=0.5, d_sd=d_sd)
            rng = np.random.default_rng(100)
            powers = []
            for _ in range(12500):
                gains1, _ = generate(scen, rng)
                powers.append(gains1.sum() / 4.0)
            mean_power = float(np.mean(powers))  # 50k entries
            assert abs(mean_power - expected) / expected < 0.02, d_sd

    def test_hop_symmetry_at_half(self):
        scen = Scenario(phi=0.5)
        rng = np.random.default_rng(101)
        p1, p2 = [], []
        for _ in range(5000):
            gains1, gains2 = generate(scen, rng)
            p1.append(gains1.mean())
            p2.append(gains2.mean())
        assert abs(np.mean(p1) - np.mean(p2)) / np.mean(p1) < 0.05

    def test_deterministic_for_seed(self):
        scen = Scenario()
        first = generate(scen, np.random.default_rng(77))
        for gains, again in zip(first, generate(scen, np.random.default_rng(77))):
            assert np.array_equal(gains, again)
        # The gains are those of the matrices redrawn from the same seed.
        for gains, hop in zip(first, channel_matrices(scen, np.random.default_rng(77))):
            redrawn = np.concatenate([np.linalg.svd(h, compute_uv=False) ** 2 for h in hop])
            assert np.array_equal(gains, redrawn)

    @pytest.mark.parametrize("case", range(40))
    def test_batched_draw_matches_per_subcarrier_redraw(self, case):
        # generate draws each hop's K matrices in one call; its bytes must
        # equal the SVD of the matrices redrawn one subcarrier at a time.
        # K runs over 1..40 and antenna counts are drawn independently, so
        # most cases truncate to n_streams.
        meta = np.random.default_rng(1000 + case)
        scen = Scenario(
            n_s=int(meta.integers(1, 7)),
            n_r=int(meta.integers(1, 7)),
            n_d=int(meta.integers(1, 7)),
            k_subcarriers=case + 1,
            phi=float(meta.uniform(0.05, 0.95)),
        )
        n = scen.n_streams
        draws = generate(scen, np.random.default_rng(case)), channel_matrices(scen, np.random.default_rng(case))
        for gains, hop in zip(*draws):
            redrawn = np.concatenate([np.linalg.svd(h, compute_uv=False)[:n] ** 2 for h in hop])
            assert gains.tobytes() == redrawn.tobytes()

    def test_gain_counts_with_unequal_antennas(self):
        scen = Scenario(n_s=3, n_r=2, n_d=4, k_subcarriers=3)
        n = scen.n_streams
        # Subcarrier-major, strongest layer first within each subcarrier.
        for gains in generate(scen, np.random.default_rng(0)):
            assert gains.size == 3 * n
            assert (np.diff(gains.reshape(3, n), axis=1) <= 0).all()

    def test_subcarrier_gain_sum_matches_frobenius(self):
        # With n_d >= n_r and n_s >= n_r the hop-1 matrix keeps all its
        # singular values, so the gains must add up to its squared norm.
        scen = Scenario(n_s=3, n_r=2, n_d=3, k_subcarriers=2)
        gains1, _ = generate(scen, np.random.default_rng(0))
        h1, _ = channel_matrices(scen, np.random.default_rng(0))
        for k in range(2):
            total = gains1[2 * k : 2 * k + 2].sum()
            assert abs(total - np.linalg.norm(h1[k]) ** 2) < 1e-9 * max(total, 1.0)


class TestEffectiveSubchannels:
    def test_sorted_descending(self):
        gains = generate(Scenario(k_subcarriers=3), np.random.default_rng(5))
        for raw, ranked in zip(gains, effective_subchannels(*gains)):
            assert (np.diff(ranked) <= 0).all()
            # A permutation of the unsorted gains, nothing lost or added.
            assert np.array_equal(np.sort(ranked), np.sort(raw))

    def test_matches_charpoly_eigenvalues(self):
        scen = Scenario(n_s=2, n_r=2, n_d=2, k_subcarriers=2)
        ranked1, _ = effective_subchannels(*generate(scen, np.random.default_rng(9)))
        expected = []
        for h in channel_matrices(scen, np.random.default_rng(9))[0]:
            expected.extend(charpoly_eigenvalues(h.conj().T @ h))
        expected = np.sort(np.array(expected))[::-1]
        assert np.max(np.abs(ranked1 - expected)) < 1e-9 * max(expected[0], 1.0)

    def test_rank_one_channel_single_nonzero_gain(self, monkeypatch):
        # Feed rank-one matrices through generate's own gains path, one
        # single-subcarrier stack per hop.
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        b = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        rank_one = iter(((a @ b.conj().T)[None], (b @ a.conj().T)[None]))
        monkeypatch.setattr(channel, "_complex_gaussian", lambda *_: next(rank_one))
        gains1, gains2 = generate(Scenario(n_s=2, n_r=2, n_d=2, k_subcarriers=1), rng)
        assert gains1.size == gains2.size == 2
        for gains in effective_subchannels(gains1, gains2):
            assert gains[0] > 0
            assert gains[1] <= 1e-12 * gains[0]
