import csv
import itertools
from functools import reduce

import numpy as np
import pytest

from lubelastic import spectral
from lubelastic.artifacts import save_snapshots, write_csv, write_grid
from lubelastic.errors import GridMismatchError, ParameterError
from lubelastic.spectral import (
    PeriodicGrid,
    VerticalNodes,
    dealiased_product,
    padded_values,
    spectral_derivative,
    truncated_hat,
)
from lubelastic.verify import thin_norm_L2L2

from oracles import (
    LoopChebOps,
    branched_grid_arrays,
    channel_field_csv,
    periodic_field_csv,
    rfftn_irfft,
    rfftn_padded_values,
    rfftn_rfft,
    rfftn_truncated_hat,
)


@pytest.fixture
def grid1():
    return PeriodicGrid(dim=1, n=32)


@pytest.fixture
def grid2():
    return PeriodicGrid(dim=2, n=16)


def band_limited(grid, rng, kmax=4):
    hat = np.zeros(grid.spectral_shape, dtype=complex)
    if grid.dim == 1:
        hat[1:kmax] = rng.standard_normal(kmax - 1) + 1j * rng.standard_normal(kmax - 1)
    else:
        hat[1:kmax, 1:kmax] = (rng.standard_normal((kmax - 1, kmax - 1))
                               + 1j * rng.standard_normal((kmax - 1, kmax - 1)))
    return grid.irfft(hat)


class TestGrid:
    def test_resolution_validation(self):
        with pytest.raises(ParameterError):
            PeriodicGrid(dim=1, n=7)
        with pytest.raises(ParameterError):
            PeriodicGrid(dim=1, n=24)
        with pytest.raises(ParameterError):
            PeriodicGrid(dim=3, n=16)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cached_arrays_are_read_only(self, dim):
        # every user of a grid shares these arrays; a write must not corrupt
        # later energies and norms
        grid = PeriodicGrid(dim=dim, n=16)
        with pytest.raises(ValueError):
            grid.mode_weights[0] = 5.0
        with pytest.raises(ValueError):
            grid.xi[0][0] = 1.0
        with pytest.raises(ValueError):
            grid.xi[0] *= 2.0
        for arrays in (grid.nodes, grid.meshes, grid.wavenumbers, grid.xi):
            assert not any(a.flags.writeable for a in arrays)
        assert grid.mode_weights.flat[0] == 1.0

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_matches_branched_arrays(self, dim, n):
        grid = PeriodicGrid(dim=dim, n=n)
        want = branched_grid_arrays(grid)
        assert grid.spectral_shape == want["spectral_shape"]
        for name in ("meshes", "wavenumbers", "xi", "mode_weights"):
            got = getattr(grid, name)
            pairs = zip(got, want[name]) if isinstance(got, tuple) else [(got, want[name])]
            assert isinstance(got, type(want[name])) and len(got) == len(want[name])
            for g, w in pairs:
                assert np.array_equal(g, w) and g.dtype == w.dtype and g.shape == w.shape
                assert not g.flags.writeable
        lap = spectral.laplacian_symbol(grid)
        assert np.array_equal(lap, want["laplacian"]) and lap.dtype == want["laplacian"].dtype
        assert lap.shape == want["laplacian"].shape

    def test_wavenumber_lattice_symmetric(self, grid2):
        k1 = grid2.wavenumbers[0]
        assert set(k1) == set(range(-8, 8))


class TestDerivatives:
    def test_axis_must_be_a_grid_axis(self, grid1, grid2):
        assert spectral.derivative_symbol(grid2, 1, axis=1).shape == grid2.xi[1].shape
        for grid in (grid1, grid2):
            with pytest.raises(ParameterError, match="axis"):
                spectral.derivative_symbol(grid, 1, axis=grid.dim)

    def test_first_derivative_of_sine(self, grid1):
        f = np.sin(2 * np.pi * grid1.meshes[0])
        d = spectral_derivative(grid1, f, 1)
        ref = 2 * np.pi * np.cos(2 * np.pi * grid1.nodes[0])
        assert np.max(np.abs(d - ref)) < 1e-12

    def test_sixth_derivative_of_cosine(self, grid1):
        f = np.cos(2 * np.pi * grid1.meshes[0])
        d = spectral_derivative(grid1, f, 6)
        ref = -((2 * np.pi) ** 6) * np.cos(2 * np.pi * grid1.nodes[0])
        # sampling noise in high modes is amplified by (2 pi n/2)**6
        assert np.max(np.abs(d - ref)) < 5e-9 * np.max(np.abs(ref))

    def test_constant_derivative_zero(self, grid1):
        f = np.full(grid1.shape, 3.7)
        for order in (1, 2, 5):
            assert np.max(np.abs(spectral_derivative(grid1, f, order))) < 1e-10

    def test_order_out_of_range(self, grid1):
        f = np.zeros(grid1.shape)
        with pytest.raises(ParameterError):
            spectral_derivative(grid1, f, 7)
        with pytest.raises(ParameterError):
            spectral_derivative(grid1, f, 0)

    def test_odd_order_output_zero_mean(self, grid1):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(grid1.shape)
        for order in (1, 3, 5):
            assert abs(spectral_derivative(grid1, f, order).mean()) < 1e-12

    def test_mixed_partials_commute(self, grid2):
        rng = np.random.default_rng(11)
        f = band_limited(grid2, rng)
        d12 = spectral_derivative(grid2, spectral_derivative(grid2, f, 1, axis=0), 1, axis=1)
        d21 = spectral_derivative(grid2, spectral_derivative(grid2, f, 1, axis=1), 1, axis=0)
        assert np.max(np.abs(d12 - d21)) < 1e-10


class TestFieldBasics:
    """Fields are nodal arrays of grid.shape; the grid transforms them."""

    def test_round_trip(self, grid1):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(grid1.shape)
        back = grid1.irfft(grid1.rfft(f))
        assert np.max(np.abs(back - f)) < 1e-12 * max(1, np.max(np.abs(f)))

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
    def test_parseval(self, dim, n):
        grid = PeriodicGrid(dim=dim, n=n)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(grid.shape)
        nodal = np.mean(f**2)
        spect = np.sum(grid.mode_weights * np.abs(grid.rfft(f)) ** 2)
        assert abs(nodal - spect) < 1e-12 * nodal

    def test_mean_examples(self, grid1):
        # the zero coefficient of the normalized transform is the mean
        x = grid1.nodes[0]
        assert abs(grid1.rfft(np.sin(2 * np.pi * x))[0]) < 1e-14
        assert grid1.rfft(np.full(grid1.shape, 5.0))[0] == 5.0
        assert abs(grid1.rfft(1.0 + 0.3 * np.cos(4 * np.pi * x))[0] - 1.0) < 1e-14

    def test_shape_mismatch(self, grid1, grid2):
        for grid, shape in ((grid1, (16,)), (grid1, (32, 1)), (grid2, (16,)), (grid2, (16, 8))):
            with pytest.raises(GridMismatchError, match=rf"values shape \({shape[0]},"):
                grid.check(np.zeros(shape))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_check_returns_the_values_as_floats(self, dim):
        grid = PeriodicGrid(dim=dim, n=8)
        values = np.arange(8**dim).reshape(grid.shape)
        checked = grid.check(values)
        assert checked.dtype == float and np.array_equal(checked, values)
        assert grid.check(checked) is checked
        assert grid.check(values.tolist()).dtype == float

    def test_csv_round_trip(self, grid1, tmp_path):
        f = np.cos(2 * np.pi * grid1.meshes[0])
        path = tmp_path / "field.csv"
        write_csv(path, ["value"], [f])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["value"]
        assert len(rows) == grid1.n + 1
        assert float(rows[1][0]) == f[0]


class TestOneDimensionalTransforms:
    """1D grids call `np.fft.rfft`/`irfft`, and the 3/2 pad lets `irfft`
    zero-pad; the results equal the `rfftn`/`irfftn` calls bit for bit."""

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
    @pytest.mark.parametrize("trailing", [(), (3,), (2, 5)], ids=["alone", "3", "2x5"])
    def test_bitwise_equal_to_rfftn(self, n, trailing):
        grid = PeriodicGrid(dim=1, n=n)
        rng = np.random.default_rng(n + len(trailing))
        values = rng.standard_normal(grid.shape + trailing)
        hat = rfftn_rfft(grid, values)
        padded = rng.standard_normal((3 * n // 2,) + trailing)
        assert np.array_equal(grid.rfft(values), hat)
        assert np.array_equal(grid.irfft(hat), rfftn_irfft(grid, hat))
        assert np.array_equal(padded_values(grid, hat), rfftn_padded_values(grid, hat))
        assert np.array_equal(truncated_hat(grid, padded), rfftn_truncated_hat(grid, padded))

    def test_stacked_pad_equals_one_at_a_time(self):
        grid = PeriodicGrid(dim=1, n=64)
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((3, 33)) + 1j * rng.standard_normal((3, 33))
        rows = padded_values(grid, stack.T).T
        for row, hat in zip(rows, stack):
            assert np.array_equal(row, padded_values(grid, hat))


class TestStepCount:
    @pytest.mark.parametrize("rel, ok", [(5e-10, True), (-5e-10, True),
                                         (2e-9, False), (-2e-9, False)])
    def test_whole_step_tolerance_is_relative(self, rel, ok):
        # within 1e-9 of the larger of t_end and dt, at any scale
        for t_end, dt in ((1e3, 1.0), (1e-3, 1e-6)):
            if ok:
                assert spectral._step_count(t_end * (1 + rel), dt) == round(t_end / dt)
            else:
                with pytest.raises(ParameterError, match="integer multiple"):
                    spectral._step_count(t_end * (1 + rel), dt)


class TestDealiasing:
    def test_quadratic_product_exact(self, grid1):
        # two fields band-limited to n/3 multiply alias-free on the 3/2 grid
        rng = np.random.default_rng(13)
        a = band_limited(grid1, rng, kmax=5)
        b = band_limited(grid1, rng, kmax=5)
        exact = a * b
        via = dealiased_product(grid1, a, b)
        assert np.max(np.abs(via - exact)) < 1e-12

    def test_two_dimensional_grid_rejected(self, grid2):
        # the 3/2 rule serves the 1D film and pressure models only
        a = band_limited(grid2, np.random.default_rng(19), kmax=3)
        with pytest.raises(ParameterError, match="one-dimensional"):
            dealiased_product(grid2, a, a)

    @pytest.mark.parametrize("n", [16, 64])
    def test_factors_on_other_grids_rejected(self, grid1, n):
        # otherwise the product of a factor on n = 32 and one on n = 16 is
        # an n = 16 field from a truncated spectrum
        a = band_limited(grid1, np.random.default_rng(19), kmax=3)
        other = np.zeros(PeriodicGrid(dim=1, n=n).shape)
        for factors in ((a, other), (other, a), (a, a, other)):
            with pytest.raises(GridMismatchError, match="does not match grid shape"):
                dealiased_product(grid1, *factors)

    def test_no_factor_rejected(self, grid1):
        with pytest.raises(ParameterError, match="at least one factor"):
            dealiased_product(grid1)

    @pytest.mark.parametrize("factors, pads", [("aaab", 2), ("ab", 2), ("a", 1), ("abab", 2)])
    def test_a_repeated_factor_is_padded_once(self, grid1, monkeypatch, factors, pads):
        # the same object passed again is padded once; a copy is a factor of its own
        rng = np.random.default_rng(23)
        arrays = {"a": band_limited(grid1, rng, kmax=4), "b": band_limited(grid1, rng, kmax=4)}
        args = [arrays[k] for k in factors]
        want = reduce(np.multiply, args)
        calls = []
        monkeypatch.setattr(spectral, "padded_values",
                            lambda g, hat, _pad=spectral.padded_values: (calls.append(1),
                                                                         _pad(g, hat))[1])
        got = dealiased_product(grid1, *args)
        assert len(calls) == pads
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
        del calls[:]
        dealiased_product(grid1, *(a.copy() for a in args))
        assert len(calls) == len(factors)


class TestVerticalNodes:
    def test_endpoints_and_monotone(self):
        vn = VerticalNodes(16)
        assert vn.nodes[0] == -1.0
        assert vn.nodes[-1] == 0.0
        assert np.all(np.diff(vn.nodes) > 0)

    def test_minimum_count(self):
        with pytest.raises(ParameterError):
            VerticalNodes(3)

    def test_quadrature_examples(self):
        vn = VerticalNodes(16)
        assert np.ones(vn.m) @ vn.weights == pytest.approx(1.0, abs=1e-14)
        y = vn.nodes
        assert (y * (y + 1)) @ vn.weights == pytest.approx(-1 / 6, abs=1e-14)
        assert y @ vn.weights == pytest.approx(-0.5, abs=1e-14)

    def test_polynomial_exactness(self):
        vn = VerticalNodes(10)
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal(vn.m)  # degree m-1
        poly = np.polynomial.Polynomial(coeffs)
        vals = poly(vn.nodes)
        exact = poly.integ()(0.0) - poly.integ()(-1.0)
        assert vals @ vn.weights == pytest.approx(exact, abs=1e-13 * max(1, abs(exact)))

    def test_antiderivative_matrices_consistent(self):
        vn = VerticalNodes(14)
        ops = vn.ops
        # weights row equals antiderivative evaluated at the top
        assert np.max(np.abs(ops.Q[-1] - vn.weights)) < 1e-14
        # second antiderivative of 1 is (y+1)^2/2
        vals = ops.second_antiderivative(np.ones(vn.m))
        assert np.max(np.abs(vals - (vn.nodes + 1) ** 2 / 2)) < 1e-13

    def test_per_horizontal_node_broadcast(self):
        vn = VerticalNodes(8)
        profiles = np.vstack([np.ones(vn.m), vn.nodes])
        out = profiles @ vn.weights
        assert out.shape == (2,)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(-0.5)


class TestChebOpsOracle:
    @pytest.mark.parametrize("m", [4, 8, 12, 16, 20, 24, 32, 48])
    def test_matches_loop_build(self, m):
        u = VerticalNodes(m)._u
        ops, ref = spectral.ChebOps(u), LoopChebOps(u)
        for name in ("D", "Q", "Q2", "weights", "moment1", "M", "K", "MA", "C_dA", "M_Al"):
            want = getattr(ref, name)
            got = getattr(ops, name)
            assert got.shape == want.shape, name
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def _oracle_bytes(oracle, *args, path):
    oracle(*args, path)
    return path.read_bytes().replace(b"\r\n", b"\n")


def _rebuilt_rows(grid, values, outdir, vnodes=None) -> bytes:
    """The old ``x[,x2][,y3],value`` rows of a field, rebuilt from the
    ``grid.csv`` and the value file written now: `artifacts.write_csv` for
    a plate field, `artifacts.save_snapshots` for a channel field of nodal
    values grid.shape + (m,), given its vertical nodes; every number keeps
    its written text."""
    if vnodes is None:
        write_grid(outdir, grid)
        write_csv(outdir / "value_0000.csv", ["value"], [values])
    else:
        save_snapshots(outdir, grid, vnodes, {"value": values[None]})
    grid_rows = (outdir / "grid.csv").read_text().splitlines()
    assert grid_rows[0] == "axis,coordinate"
    axes = {}
    for row in grid_rows[1:]:
        axis, coordinate = row.split(",")
        axes.setdefault(axis, []).append(coordinate)
    values = (outdir / "value_0000.csv").read_text().splitlines()
    assert values[0] == "value"
    rows = [",".join(coords + (v,))
            for coords, v in zip(itertools.product(*axes.values()), values[1:], strict=True)]
    return "".join(f"{row}\n" for row in [",".join([*axes, "value"]), *rows]).encode()


class TestCsvOracle:
    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_periodic_field(self, dim, n, tmp_path):
        rng = np.random.default_rng(3)
        grid, values = PeriodicGrid(dim=dim, n=n), rng.standard_normal((n,) * dim)
        want = _oracle_bytes(periodic_field_csv, grid, values, path=tmp_path / "old.csv")
        assert _rebuilt_rows(grid, values, tmp_path) == want

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_channel_field(self, dim, n, tmp_path):
        rng = np.random.default_rng(4)
        grid, vn = PeriodicGrid(dim=dim, n=n), VerticalNodes(6)
        values = rng.standard_normal(grid.shape + (vn.m,))
        want = _oracle_bytes(channel_field_csv, grid, vn, values, path=tmp_path / "old.csv")
        assert _rebuilt_rows(grid, values, tmp_path, vn) == want


class TestChannelField:
    """Channel fields held as nodal arrays, grid.shape + (m,)."""

    def test_traces_and_norm(self, grid1):
        vn = VerticalNodes(12)
        vals = np.ones(grid1.shape + (vn.m,)) * (vn.nodes + 1.0)
        assert np.allclose(vals[..., 0], 0.0)
        assert np.allclose(vals[..., -1], 1.0)
        # integral of (y+1)^2 over (-1,0) is 1/3
        norm = thin_norm_L2L2([np.stack([vals, vals])], vn, 1.0, [0.0, 1.0])
        assert norm**2 == pytest.approx(1 / 3, rel=1e-12)

    def test_csv(self, grid1, tmp_path):
        vn = VerticalNodes(8)
        save_snapshots(tmp_path, grid1, vn, {"chan": np.zeros((1,) + grid1.shape + (vn.m,))})
        with open(tmp_path / "chan_0000.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["value"]
