"""Acceptance suite: the seven release criteria, one test each.

Each test prints one PASS/FAIL line; the element generators are shared so
criterion 5 runs over exactly the elements of criteria 1, 3 and 4.
"""

import json
import time

import numpy as np

import lorentzpol as lp

from conftest import GOLDEN_RUNS, golden_run, run_process

BETAS = (0.1, 0.5, np.log(2.0), 1.0, 2.0, 3.0)
N_SAMPLES = 1000


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


def _boost_elements():
    return [lp.boost_mueller(3, beta) for beta in BETAS]


def _accepted_round_trips(seed=2024):
    """Random q with component moduli <= 0.9; draws whose parameter map or
    spinor recovery is singular are rejected and redrawn."""
    rng = np.random.default_rng(seed)
    while True:
        radius = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 3))
        phase = rng.uniform(0.0, 2.0 * np.pi, 3)
        q = radius * np.exp(1j * phase)
        try:
            k = lp.k_from_q(q)
        except lp.SingularParameter:
            continue
        element = lp.lorentz_from_k(k)
        ms = lp.simulate_measurements(element, 1.0)
        try:
            k_rec = lp.recover_k(ms)
        except lp.SingularNormalization:
            continue
        yield q, k, element, ms, k_rec


def _random_unit_quaternions(count=N_SAMPLES, seed=777):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = rng.normal(size=4)
        n /= np.linalg.norm(n)
        if n[0] < 0.0:
            n = -n
        if n[0] < 0.05:
            continue
        out.append(n)
    return out


def test_criterion_1_boost_regression():
    start = time.perf_counter()
    worst = 0.0
    try:
        for beta, element in zip(BETAS, _boost_elements()):
            ms = lp.simulate_measurements(element, 1.0)
            q = lp.recover_q(ms)
            expected = np.array([0.0, 0.0, -np.sinh(beta) / (np.cosh(beta) + 1.0)])
            worst = max(worst, float(np.abs(q - expected).max()))
            assert np.abs(q - expected).max() < 1e-10, (beta, q, expected)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
    except AssertionError as exc:
        _report(1, False, exc)
        raise
    _report(1, True, f"boost family q3 = -sinh(b)/(cosh(b)+1), worst dev {worst:.2e}")


def test_criterion_2_reconstruction_oracle():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    worst = 0.0
    try:
        for _ in range(N_SAMPLES):
            m = rng.uniform(-2.0, 2.0, (4, 4))
            rec = lp.reconstruct_mueller(lp.simulate_measurements(m, 1.0))
            worst = max(worst, float(np.abs(rec - m).max() / np.abs(m).max()))
        assert worst < 1e-12, worst
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
    except AssertionError as exc:
        _report(2, False, exc)
        raise
    _report(2, True, f"{N_SAMPLES} random matrices inverted, worst rel err {worst:.2e}")


def test_criterion_3_lorentz_round_trip():
    start = time.perf_counter()
    worst_k = worst_m = 0.0
    try:
        trips = _accepted_round_trips()
        for _ in range(N_SAMPLES):
            q, k, element, ms, k_rec = next(trips)
            dev_k = float(np.abs(k_rec - lp.canonical_spinor_sign(k)).max())
            dev_m = float(np.abs(lp.lorentz_from_k(k_rec) - lp.reconstruct_mueller(ms)).max())
            worst_k = max(worst_k, dev_k)
            worst_m = max(worst_m, dev_m)
            assert dev_k < 1e-9, (q, dev_k)
            assert dev_m < 1e-9, (q, dev_m)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
    except AssertionError as exc:
        _report(3, False, exc)
        raise
    _report(3, True,
            f"{N_SAMPLES} spinor round trips, worst k dev {worst_k:.2e}, "
            f"matrix dev {worst_m:.2e}")


def test_criterion_4_quaternion_branch():
    worst = 0.0
    try:
        for n in _random_unit_quaternions():
            element = lp.embed_rotation(lp.quaternion_to_rotation(n))
            ms = lp.simulate_measurements(element, 1.0)
            block = lp.rotation_from_measurements(ms)
            recovered = lp.recover_quaternion(block)
            worst = max(worst, float(np.abs(recovered - n).max()))
            assert np.abs(recovered - n).max() < 1e-9, n
            assert abs(lp.rotation_identity_sum(block) - 4.0) < 1e-10
        for _ in range(2):  # deterministic failure on pi rotations
            try:
                lp.recover_quaternion(lp.quaternion_to_rotation([0.0, 1.0, 0.0, 0.0]))
            except lp.NearPiRotation:
                pass
            else:
                raise AssertionError("pi rotation did not raise NearPiRotation")
    except AssertionError as exc:
        _report(4, False, exc)
        raise
    _report(4, True, f"{N_SAMPLES} quaternion round trips, worst dev {worst:.2e}")


def test_criterion_5_residual_suite():
    trips = _accepted_round_trips()
    elements = list(_boost_elements())
    elements += [next(trips)[2] for _ in range(N_SAMPLES)]
    elements += [
        lp.embed_rotation(lp.quaternion_to_rotation(n)) for n in _random_unit_quaternions()
    ]
    worst = 0.0
    try:
        for element in elements:
            res = lp.lorentz_residuals(lp.simulate_measurements(element, 1.0))
            worst = max(worst, res.normalized_max)
            assert res.normalized_max < 1e-10
        for intensity in (1.0, 3.0):
            ms = lp.simulate_measurements(2.0 * np.eye(4), intensity)
            res = lp.lorentz_residuals(ms)
            assert abs(res.r0 - 3.0 * intensity**2) < 1e-12
    except AssertionError as exc:
        _report(5, False, exc)
        raise
    _report(5, True,
            f"residuals vanish on {len(elements)} recovered elements "
            f"(worst {worst:.2e}); scaled identity flagged with r0 = 3*I^2")


def test_criterion_6_degenerate_handling(tmp_path):
    element = np.diag([1.0, -1.0, -1.0, 1.0])
    ms = lp.simulate_measurements(element, 1.0)
    try:
        try:
            lp.recover_k(ms)
        except lp.DegenerateTrace:
            pass
        else:
            raise AssertionError("DegenerateTrace not raised")
        path = tmp_path / "degenerate.json"
        path.write_text(ms.to_json() + "\n")
        code, out, err = run_process("recover", "--model", "lorentz", str(path))
        assert (code, out) == (4, b""), err
        assert b"nan" not in err.lower()
        report = json.loads(err)
        assert "DegenerateTrace" in report["error"]
        assert np.isfinite(np.asarray(report["matrix"], dtype=float)).all()
    except AssertionError as exc:
        _report(6, False, exc)
        raise
    _report(6, True, "degenerate trace raises cleanly; CLI exit 4 with finite partial report")


def test_criterion_7_cli_golden_files():
    try:
        for row in GOLDEN_RUNS[:2]:  # simulate and recover the ln 2 boost
            actual, expected = golden_run(row)
            assert actual == expected, row
    except AssertionError as exc:
        _report(7, False, exc)
        raise
    _report(7, True, "simulate and recover outputs match stored golden bytes")
