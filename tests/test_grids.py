import math

import numpy as np
import pytest

from qpyramid.cli import write_table
from qpyramid.grids import (
    Grid,
    GridError,
    PacketSpec,
    PhaseProfile,
    PotentialSpec,
    gaussian_packet,
    kinetic_phase_profile,
    momentum_samples,
    position_samples,
    potential_profile,
)


def test_grid_spacing_table_defaults():
    grid = Grid(10.0, 5)
    assert grid.dx == pytest.approx(0.625)
    assert grid.n_samples == 32


def test_grid_rejects_bad_parameters():
    with pytest.raises(GridError):
        Grid(0.0, 5)
    with pytest.raises(GridError):
        Grid(10.0, 0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(GridError):
            Grid(bad, 5)
    # non-integer widths used to build (True as 1 qubit) or fail later
    for bad in (True, 2.5, 5.0, "5"):
        with pytest.raises(GridError):
            Grid(10.0, bad)


def test_position_endpoints():
    x = position_samples(Grid(10.0, 5))
    # direct evaluation of -d + (k + 1/2) dx
    assert x[0] == pytest.approx(-10.0 + 0.5 * 0.625)
    assert x[0] == pytest.approx(-9.6875)
    assert x[31] == pytest.approx(9.6875)


def test_position_symmetry_and_zero_mean():
    for n in (3, 6):
        x = position_samples(Grid(7.3, n))
        np.testing.assert_allclose(x, -x[::-1], atol=0)
        assert abs(x.sum()) < 1e-12


def test_momentum_integer_offsets_at_d_pi():
    p = momentum_samples(Grid(math.pi, 3))
    np.testing.assert_allclose(p, np.arange(8) - 3.5, atol=0)


def test_momentum_center_values():
    for d, n in ((10.0, 4), (2.5, 6)):
        grid = Grid(d, n)
        p = momentum_samples(grid)
        half = grid.n_samples // 2
        assert p[half - 1] == pytest.approx(-math.pi / (2 * d))
        assert p[half] == pytest.approx(math.pi / (2 * d))
        np.testing.assert_allclose(p, -p[::-1], atol=0)
        assert abs(p.sum()) < 1e-12


def test_kinetic_profile_direct_value():
    profile = kinetic_phase_profile(Grid(math.pi, 3), 0.1)
    assert profile.thetas[0] == pytest.approx(3.5**2 * 0.05)
    assert profile.thetas[0] == pytest.approx(0.6125)
    assert profile.thetas[7] == pytest.approx(0.6125)


def test_kinetic_profile_zero_dt():
    profile = kinetic_phase_profile(Grid(5.0, 4), 0.0)
    assert np.all(profile.thetas == 0.0)


def test_kinetic_profile_palindromic_exactly():
    profile = kinetic_phase_profile(Grid(10.0, 6), 0.1)
    assert np.array_equal(profile.thetas, profile.thetas[::-1])
    assert profile.provenance == "kinetic"
    assert profile.span == "full"


def test_kinetic_profile_nonnegative_and_mass():
    profile = kinetic_phase_profile(Grid(10.0, 5), 0.1, mass=2.0)
    assert np.all(profile.thetas >= 0.0)
    double = kinetic_phase_profile(Grid(10.0, 5), 0.1, mass=1.0)
    np.testing.assert_allclose(double.thetas, 2.0 * profile.thetas)
    with pytest.raises(GridError):
        kinetic_phase_profile(Grid(10.0, 5), 0.1, mass=0.0)


def test_kinetic_half_is_quadratic_in_index():
    # constant second finite difference on the first half
    profile = kinetic_phase_profile(Grid(10.0, 7), 0.1)
    half = profile.first_half().thetas
    second = np.diff(half, 2)
    assert np.max(np.abs(second - second[0])) < 1e-10


def test_profile_validation():
    with pytest.raises(GridError):
        PhaseProfile([0.0, np.inf], "half")
    with pytest.raises(GridError):
        PhaseProfile([0.0, 1.0, 2.0, 3.0], "full", "kinetic")  # not palindromic
    with pytest.raises(GridError):
        PhaseProfile([0.0], "sideways")


def test_gaussian_packet_normalized():
    state = gaussian_packet(Grid(10.0, 5), PacketSpec(1.0))
    assert abs(state.norm() - 1.0) < 1e-12
    assert abs(state.probabilities().sum() - 1.0) < 1e-12


def test_gaussian_packet_k0_zero_real_positive():
    state = gaussian_packet(Grid(10.0, 4), PacketSpec(0.0))
    assert np.all(np.abs(state.amplitudes.imag) < 1e-15)
    assert np.all(state.amplitudes.real > 0.0)


def test_gaussian_packet_magnitude_symmetric():
    state = gaussian_packet(Grid(10.0, 5), PacketSpec(2.7))
    mags = np.abs(state.amplitudes)
    np.testing.assert_allclose(mags, mags[::-1], atol=1e-15)


def test_potential_none_is_zero():
    grid = Grid(10.0, 4)
    np.testing.assert_allclose(potential_profile(grid, PotentialSpec.none()), 0.0)


def test_potential_default_single_step_matches_z_pattern():
    # default realization mirrors the circuit's e^{-i eta Z t}: +eta then -eta
    grid = Grid(10.0, 4)
    eta = 0.8
    profile = potential_profile(grid, PotentialSpec.single_step(eta))
    x = position_samples(grid)
    np.testing.assert_allclose(profile[x < 0], eta)
    np.testing.assert_allclose(profile[x >= 0], -eta)


def test_potential_default_double_step_pattern():
    grid = Grid(10.0, 4)
    profile = potential_profile(grid, PotentialSpec.double_step(1.0))
    # qubit 1 bit flips each quarter of the domain
    np.testing.assert_allclose(profile, np.repeat([1.0, -1.0, 1.0, -1.0], 4))


def test_potential_malformed():
    with pytest.raises(GridError):
        potential_profile(Grid(1.0, 3), PotentialSpec.single_step(1.0, qubit=7))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(GridError):
            PotentialSpec.single_step(bad)


def test_potential_positions_must_be_integers():
    # a non-integer position used to be truncated by int(): 0.7 -> 0, True -> 1
    for bad in ((0.7,), (True,), (1.0,), (np.float64(2.0),), ("1",), (0, False)):
        with pytest.raises(GridError):
            PotentialSpec(1.0, bad)
    positions = PotentialSpec(1.0, (np.int64(2), 0, np.uint8(1))).qubit_positions
    assert positions == (2, 0, 1)
    assert all(type(q) is int for q in positions)


def test_profile_csv(tmp_path):
    profile = kinetic_phase_profile(Grid(10.0, 3), 0.1)
    path = tmp_path / "profile.csv"
    write_table(path, ["index", "theta"], [range(len(profile)), profile.thetas.tolist()])
    lines = path.read_text().splitlines()
    assert lines[0] == "index,theta"
    assert len(lines) == 9
    assert float(lines[1].split(",")[1]) == profile.thetas[0]
