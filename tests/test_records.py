"""Echo bookkeeping: envelopes, fidelity overlap, CSV output."""

import math

import numpy as np
import pytest

from ramanecho.core import ControlProfile
from ramanecho.errors import PhysicalityViolation, ZeroInputEnergy
from ramanecho.records import (
    EchoRecord,
    centroid,
    envelope_from_scaled,
    measure_efficiency,
    overlap_fidelity,
    write_envelope_csv,
)

CENTROID_TOL = 1e-12
OVERLAP_TOL = 5e-4
CHIRP_ORACLE_TOL = 5e-4


def gaussian(tau, center, width):
    return np.exp(-((tau - center) ** 2) / (2.0 * width ** 2))


def make_record(echo_scale=1.0, echo_shift=0.0):
    tau = np.linspace(0.0, 20.0, 801)
    a_in = gaussian(tau, 8.0, 1.0).astype(complex)
    a_echo = echo_scale * gaussian(tau, 12.0 + echo_shift, 1.0).astype(complex)
    return EchoRecord(protocol="recrib", tau_input=tau, input_envelope=a_in,
                      tau_echo=tau, echo_envelope=a_echo)


def test_centroid_of_symmetric_pulse():
    tau = np.linspace(0.0, 10.0, 1001)
    env = gaussian(tau, 4.0, 0.7)
    assert abs(centroid(tau, env) - 4.0) < 1e-9


def test_centroid_empty_envelope_falls_back_to_window_center():
    tau = np.linspace(2.0, 6.0, 101)
    assert centroid(tau, np.zeros_like(tau)) == pytest.approx(4.0,
                                                              abs=CENTROID_TOL)


def test_envelope_from_scaled_inverts_dressing():
    ctl = ControlProfile.flat_top(rabi=40.0, detuning=80.0, switch_on=0.0,
                                  switch_off=10.0, rise_time=0.5)
    tau = np.linspace(0.0, 10.0, 501)
    a_true = gaussian(tau, 5.0, 1.0).astype(complex)
    zeta = a_true * np.conj(ctl.rabi(tau)) / ctl.one_photon_detuning
    got = envelope_from_scaled(zeta, ctl, tau)
    on = np.abs(ctl.rabi(tau)) ** 2 > 1e-6 * ctl.peak_rabi() ** 2
    assert np.max(np.abs(got[on] - a_true[on])) < OVERLAP_TOL


def test_envelope_from_scaled_masks_control_off():
    ctl = ControlProfile.flat_top(rabi=40.0, detuning=80.0, switch_on=3.0,
                                  switch_off=7.0, rise_time=0.2)
    tau = np.linspace(0.0, 10.0, 501)
    zeta = np.ones_like(tau, dtype=complex)
    got = envelope_from_scaled(zeta, ctl, tau)
    assert np.all(got[tau < 2.9] == 0.0)
    assert np.all(got[tau > 7.1] == 0.0)


def test_overlap_fidelity_perfect_for_reversed_copy():
    tau = np.linspace(0.0, 16.0, 1601)
    a = (gaussian(tau, 6.0, 1.0)
         * np.exp(1j * 0.8 * (tau - 6.0) ** 2)).astype(complex)
    echo = a[::-1]  # exact time reversal on the mirrored grid
    fid = overlap_fidelity(tau, a, tau, echo)
    assert fid > 1.0 - OVERLAP_TOL


def test_overlap_fidelity_ignores_timing_offset_and_grids():
    t_in = np.linspace(0.0, 16.0, 1601)
    a = gaussian(t_in, 6.0, 1.0).astype(complex)
    t_echo = np.linspace(100.0, 130.0, 2401)
    echo = gaussian(t_echo, 117.3, 1.0).astype(complex)
    fid = overlap_fidelity(t_in, a, t_echo, echo)
    assert fid > 1.0 - OVERLAP_TOL


def test_overlap_fidelity_chirp_mismatch_oracle():
    # DERIVED oracle: quadrature of the chirped/plain Gaussian overlap
    tau = np.linspace(-12.0, 12.0, 4801)
    width = 1.0
    chirp = 2.0 / width ** 2
    a_plain = gaussian(tau, 0.0, width).astype(complex)
    a_chirp = a_plain * np.exp(0.5j * chirp * tau ** 2)

    dt = tau[1] - tau[0]
    num = abs(np.trapezoid(a_chirp * np.conj(a_plain), dx=dt)) ** 2
    den = (np.trapezoid(np.abs(a_chirp) ** 2, dx=dt)
           * np.trapezoid(np.abs(a_plain) ** 2, dx=dt))
    want = num / den
    got = overlap_fidelity(tau, a_plain, tau, a_chirp)
    assert abs(got - want) < CHIRP_ORACLE_TOL
    # c * width^2 = 2 pins the overlap at 1/sqrt(2) up to quadrature error
    assert abs(want - 1.0 / math.sqrt(2.0)) < 1e-6


def test_measure_efficiency_energy_ratio():
    record = make_record(echo_scale=0.5)
    eps, fid = measure_efficiency(record)
    assert abs(eps - 0.25) < 1e-12
    assert fid > 1.0 - OVERLAP_TOL


def test_measure_efficiency_empty_echo():
    record = make_record(echo_scale=0.0)
    eps, fid = measure_efficiency(record)
    assert eps == 0.0
    assert fid == 0.0


def test_measure_efficiency_rejects_zero_input():
    record = make_record()
    record.input_envelope = np.zeros_like(record.input_envelope)
    with pytest.raises(ZeroInputEnergy):
        measure_efficiency(record)


def test_measure_efficiency_rejects_gain():
    record = make_record(echo_scale=1.5)
    with pytest.raises(PhysicalityViolation):
        measure_efficiency(record)


def test_summary_line_fields():
    record = make_record(echo_scale=0.5)
    record.t1 = 4.0
    record.t2 = 4.0
    line = record.summary_line(*measure_efficiency(record))
    for key in ("protocol=recrib", "t1=4", "t2=4",
                "efficiency=", "fidelity=", "echo_peak_time="):
        assert key in line


def test_envelope_csv_round_trip(tmp_path):
    tau = np.linspace(0.0, 2.0, 21)
    env = (np.sin(tau) + 1j * np.cos(tau)).astype(complex)
    path = tmp_path / "env.csv"
    write_envelope_csv(str(path), tau, env)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (21, 4)
    assert np.max(np.abs(data[:, 0] - tau)) < 1e-15
    assert np.all(data[:, 1] == 0.0)
    assert np.max(np.abs(data[:, 2] + 1j * data[:, 3] - env)) < 1e-15


def test_envelope_csv_deterministic(tmp_path):
    tau = np.linspace(0.0, 2.0, 21)
    env = (np.sin(tau) + 1j * np.cos(tau)).astype(complex)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_envelope_csv(str(p1), tau, env)
    write_envelope_csv(str(p2), tau, env)
    assert p1.read_bytes() == p2.read_bytes()
