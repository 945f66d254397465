"""Output checks reject what they should."""
import numpy as np

import checks


def _masks():
    rng = np.random.default_rng(0)
    return {"dense0": (rng.random((2, 4)) > 0.5).astype(float),
            "dense1": (rng.random((4, 2)) > 0.5).astype(float)}


def test_good_masks_pass():
    m = _masks()
    assert checks.mask_problems(m, {k: v.shape for k, v in m.items()}) == []


def test_corrupted_mask_is_rejected():
    m = _masks()
    shapes = {k: v.shape for k, v in m.items()}
    bad = dict(m, dense0=m["dense0"] * 0.5)
    assert any("not binary" in p for p in checks.mask_problems(bad, shapes))
    wrong = dict(m, dense1=m["dense1"].T)
    assert any("shape" in p for p in checks.mask_problems(wrong, shapes))
    missing = {"dense0": m["dense0"]}
    assert checks.mask_problems(missing, shapes)


def test_mask_hash_sees_one_flipped_bit():
    m = _masks()
    flipped = {k: v.copy() for k, v in m.items()}
    flipped["dense1"][0, 0] = 1.0 - flipped["dense1"][0, 0]
    assert checks.mask_hash(m) == checks.mask_hash({k: v.copy() for k, v in m.items()})
    assert checks.mask_hash(m) != checks.mask_hash(flipped)


def test_iteration_count():
    assert checks.iteration_problems(1500, 3, 500) == []
    assert checks.iteration_problems(1499, 3, 500)


def _imp_rounds(sizes=(10, 10), rate=0.2, rounds=3):
    rng = np.random.default_rng(1)
    scores = {f"g{i}": rng.random(n) for i, n in enumerate(sizes)}
    keep = {k: np.ones(n) for k, n in zip(scores, sizes)}
    out = []
    for _ in range(rounds):
        alive = [(v, k, i) for k in keep for i, v in enumerate(scores[k]) if keep[k][i]]
        cut = int(np.floor(rate * len(alive) + 1e-9)) or 1
        for _, k, i in sorted(alive)[:cut]:
            keep[k][i] = 0.0
        out.append({k: v.copy() for k, v in keep.items()})
    return out


def test_imp_rounds_nested_with_exact_counts():
    assert checks.imp_round_problems(_imp_rounds(), 0.2) == []


def test_imp_rounds_wrong_count_or_not_nested():
    rounds = _imp_rounds()
    extra = [dict(r) for r in rounds]
    g0 = extra[1]["g0"].copy()
    g0[np.flatnonzero(g0)[0]] = 0.0
    extra[1]["g0"] = g0
    assert any("kept" in p for p in checks.imp_round_problems(extra, 0.2))
    swapped = [dict(r) for r in rounds]
    g1 = swapped[2]["g1"].copy()
    # same count, but revives a weight already pruned in round 2
    off, on = np.flatnonzero(rounds[1]["g1"] == 0)[0], np.flatnonzero(g1)[0]
    g1[off], g1[on] = 1.0, 0.0
    swapped[2]["g1"] = g1
    assert any("not nested" in p for p in checks.imp_round_problems(swapped, 0.2))


def test_report_mismatch_is_found():
    row = {"run_id": "imp-tau=0.2-seed1", "round": 2, "accuracy": 0.99,
           "remaining_frac": 0.64}
    report = {"best_performing": row, "sparsest_matching": row,
              "dense_accuracy": 0.98,
              "cost": {"imp": {"sequential_iters": 900, "parallel_iters": 150}}}
    assert checks.report_problems(report, report) == []
    other = dict(report, sparsest_matching=dict(row, round=3))
    assert checks.report_problems(report, other)
    other = dict(report, cost={"imp": {"sequential_iters": 899, "parallel_iters": 150}})
    assert checks.report_problems(report, other)
