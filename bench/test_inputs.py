"""The seeded input streams: one seed reproduces identical inputs, and the
only filters on the draws are the library's own admissibility rules."""

from __future__ import annotations

import itertools

import numpy as np

import env

env.use_checkout_src()

import inputs  # noqa: E402  (needs the checkout's src on the path)
from htbif import model, perturbed, spectral, timemap  # noqa: E402
from htbif.errors import DegenerateError, DomainError  # noqa: E402

ROUND = sum(len(inputs.mode_windows(model.ModelParams(mu=mu))) for mu in inputs.BRANCH_MUS) * inputs.BRANCH_STRATA


def _take(stream, n):
    return list(itertools.islice(stream, n))


def _branch_key(pt):
    return (pt.n, pt.params.mu, pt.params.lam)


def test_branch_points_reproduce_and_cover_every_window():
    first = _take(inputs.branch_points(np.random.default_rng(7)), 2 * ROUND)
    again = _take(inputs.branch_points(np.random.default_rng(7)), 2 * ROUND)
    other = _take(inputs.branch_points(np.random.default_rng(8)), 2 * ROUND)
    assert [_branch_key(p) for p in first] == [_branch_key(p) for p in again]
    assert [_branch_key(p) for p in first] != [_branch_key(p) for p in other]
    # two modes at mu = 170, three at mu = 360, every stratum once per round
    assert ROUND == 5 * inputs.BRANCH_STRATA
    for batch in (first[:ROUND], first[ROUND:]):
        windows = {(p.params.mu, p.n) for p in batch}
        assert windows == {(170.0, 1), (170.0, 2), (360.0, 1), (360.0, 2), (360.0, 3)}
        for mu, n in windows:
            root = spectral.lambda_roots(n, model.ModelParams(mu=mu))
            width = (root.lambda_plus - root.lambda_minus) / inputs.BRANCH_STRATA
            strata = sorted(
                int((p.params.lam - root.lambda_minus) // width)
                for p in batch if (p.params.mu, p.n) == (mu, n)
            )
            assert strata == list(range(inputs.BRANCH_STRATA))


def test_branch_points_reject_only_by_the_trace_loop_rule(monkeypatch):
    seen = []
    rule = inputs.predicted_amplitude

    def spy(n, p):
        value = rule(n, p)
        seen.append((n, p.mu, p.lam, value))
        return value

    monkeypatch.setattr(inputs, "predicted_amplitude", spy)
    emitted = _take(inputs.branch_points(np.random.default_rng(3)), ROUND)
    accepted = {(n, mu, lam) for n, mu, lam, v in seen if v >= inputs.MIN_PREDICTED_AMPLITUDE}
    assert len(seen) >= ROUND
    assert {_branch_key(p) for p in emitted} == accepted
    for pt in emitted:
        root = spectral.lambda_roots(pt.n, pt.params)
        assert root.lambda_minus < pt.params.lam < root.lambda_plus


def test_timemap_points_reproduce_and_lie_in_the_time_map_domain():
    first = _take(inputs.timemap_points(np.random.default_rng(11)), 3000)
    again = _take(inputs.timemap_points(np.random.default_rng(11)), 3000)
    assert [(p.kind, p.w_minus, p.params.mu, p.params.lam) for p in first] == [
        (p.kind, p.w_minus, p.params.mu, p.params.lam) for p in again
    ]
    kinds = [p.kind for p in first]
    assert all(sorted(kinds[i:i + 3]) == ["center", "mid", "saddle"] for i in range(0, len(kinds), 3))
    for pt in first:
        w0 = model.w0_const(pt.params)  # raises unless lam lies in (0, b mu/d)
        assert 0.0 < pt.w_minus < w0
        # quadrature route, never the center shortcut
        assert w0 - pt.w_minus >= timemap.CENTER_CUTOFF * w0
    ratios = np.array([p.w_minus / model.w0_const(p.params) for p in first])
    assert ratios.min() < 1e-8 and 1.0 - ratios.max() < 1e-5


def _eps_key(s):
    a = s.params.coeff_a
    return (s.n, s.params.mu, s.params.lam, a.is_constant,
            None if a.is_constant else a.ys.tobytes(), tuple(o for o, _ in s.seeds))


def test_eps_parameters_reject_only_by_admissible_lambda(monkeypatch):
    calls = []
    admissible = perturbed.admissible_lambda

    def spy(n, p, margin=None):
        try:
            admissible(n, p, margin)
        except DomainError:
            calls.append((p.lam, False))
            raise
        calls.append((p.lam, True))

    monkeypatch.setattr(perturbed, "admissible_lambda", spy)
    rng = np.random.default_rng(2)
    count = 4 * len(inputs.EPS_CLASSES)
    for index in range(count):
        calls.clear()
        n, p = inputs.eps_parameters(rng, index, count)
        # the first candidate admissible_lambda accepts is the one returned
        assert [ok for _, ok in calls] == [False] * (len(calls) - 1) + [True]
        assert calls[-1][0] == p.lam
        mu, n_class = inputs.EPS_CLASSES[index % len(inputs.EPS_CLASSES)]
        assert (p.mu, n) == (mu, n_class)
        assert p.coeff_a.is_constant == (index // len(inputs.EPS_CLASSES) % 2 == 0)


def test_eps_sets_reproduce_and_pass_census_admissibility(monkeypatch):
    draws, verdicts = [], []
    draw, certify = inputs.eps_parameters, inputs.census_certifies

    def draw_spy(rng, index, count):
        out = draw(rng, index, count)
        draws.append(out)
        return out

    def certify_spy(n, p):
        ok = certify(n, p)
        verdicts.append((p.lam, ok))
        return ok

    monkeypatch.setattr(inputs, "eps_parameters", draw_spy)
    monkeypatch.setattr(inputs, "census_certifies", certify_spy)
    count = 2 * len(inputs.EPS_CLASSES)  # one constant and one sampled set per class
    sets = inputs.eps_sets(np.random.default_rng(5), count)
    monkeypatch.undo()
    again = inputs.eps_sets(np.random.default_rng(5), count)
    assert [_eps_key(s) for s in sets] == [_eps_key(s) for s in again]
    for s, t in zip(sets, again):
        for (_, w1), (_, w2) in zip(s.seeds, t.seeds):
            assert np.array_equal(w1.values, w2.values)

    # every draw census certified became a set, in order: no other filter
    assert [lam for lam, ok in verdicts if ok] == [s.params.lam for s in sets]
    assert {lam for lam, _ in verdicts} <= {p.lam for _, p in draws}
    assert [s.params.coeff_a.is_constant for s in sets] == [True] * 3 + [False] * 3
    for s in sets:
        perturbed.admissible_lambda(s.n, s.params)
        assert len(s.seeds) == 2 * s.n + 1
        for origin, w in s.seeds:
            perturbed.assert_nondegenerate(w, s.params, label=origin)
        if not s.params.coeff_a.is_constant:
            assert np.all(s.params.coeff_a.ys > 0.0) and np.all(s.params.coeff_c.ys > 0.0)

    ops = _take(inputs.eps_ops(np.random.default_rng(9), sets), 100)
    ops_again = _take(inputs.eps_ops(np.random.default_rng(9), again), 100)
    assert [(o.origin, o.start.eps, o.eps_target, o.rungs) for o in ops] == [
        (o.origin, o.start.eps, o.eps_target, o.rungs) for o in ops_again
    ]
    for o in ops:
        assert 0.0 < o.start.eps < o.eps_target <= inputs.EPS_TARGET[1]
        assert inputs.RUNGS[0] <= o.rungs <= inputs.RUNGS[1]


def test_a_degenerate_draw_is_redrawn(monkeypatch):
    real = inputs.limit_seeds
    refused = []

    def first_refused(n, p):
        if not refused:
            refused.append(p.lam)
            raise DegenerateError("seed linearization singular")
        return real(n, p)

    monkeypatch.setattr(inputs, "limit_seeds", first_refused)
    (s,) = inputs.eps_sets(np.random.default_rng(5), 1)
    assert refused and s.params.lam != refused[0]
