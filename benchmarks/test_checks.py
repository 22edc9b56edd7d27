"""Tests of the benchmark's output checks: a wrong answer must trip them."""

import numpy as np

from bagel import smart_design
from checks import prior_nmf_problems, smart_design_problems, smart_design_reference


def sd_rows(losses, baselines):
    rows = []
    for fold, (loss, base) in enumerate(zip(losses, baselines)):
        rows.append({"method": "bagel", "fold": str(fold), "train_loss": repr(loss),
                     "completed": "true"})
        for method in ("l2_br", "l2_or"):
            rows.append({"method": method, "fold": str(fold), "train_loss": repr(base),
                         "completed": "true"})
    return rows


def test_smart_design_check_trips_on_perturbed_loss():
    optimum = [3.25, 4.5]
    assert smart_design_problems(sd_rows(optimum, [3.5, 4.75]), optimum) == []
    perturbed = [optimum[0], optimum[1] * (1 + 1e-7)]
    problems = smart_design_problems(sd_rows(perturbed, [3.5, 4.75]), optimum)
    assert len(problems) == 1 and "fold 1" in problems[0] and "optimum" in problems[0]


def test_smart_design_check_trips_on_loss_above_baseline_and_missing_rows():
    problems = smart_design_problems(sd_rows([3.25], [3.0]), [3.25])
    assert len(problems) == 2 and all("above" in p for p in problems)
    problems = smart_design_problems(sd_rows([3.25], [3.5])[1:], [3.25])
    assert any("no row for bagel" in p for p in problems)


def test_reference_equals_bagel_optimum():
    inst = smart_design.sd_generate_instance(10, 100, 0.6, seed=3, n_components=6)
    rows = smart_design.run_methods(inst, folds=2)
    owner = np.repeat(np.arange(len(inst.components)), [c.input_size for c in inst.components])
    reference = []
    for fold in range(2):
        train, _ = smart_design.fold_split(len(inst.y), fold, inst.seed)
        reference.append(smart_design_reference(inst.X[train], inst.y[train], owner,
                                                inst.weights, inst.bound))
    csv_rows = [{k: str(v).lower() if isinstance(v, bool) else str(v) for k, v in r.items()}
                for r in rows]
    assert smart_design_problems(csv_rows, reference) == []


def test_prior_nmf_check_trips_on_bad_assignment():
    row = {"best_loss": "0.5", "recovery": "0.75", "completed": "true"}
    assert prior_nmf_problems([row], [0, 2, 3, 5], 4, [0, 2, 3, 4], capped=False) == []
    assert prior_nmf_problems([row], [0, 2, 2, 5], 4, [0, 2, 3, 4], capped=False)
    assert prior_nmf_problems([row], [0, 2, 3, 4], 4, [0, 2, 3, 4], capped=False)  # recovery 1
    assert prior_nmf_problems([dict(row, best_loss="nan")], [0, 2, 3, 5], 4, [0, 2, 3, 4],
                              capped=False)
    incomplete = dict(row, completed="false")
    assert prior_nmf_problems([incomplete], [0, 2, 3, 5], 4, [0, 2, 3, 4], capped=False)
    assert prior_nmf_problems([incomplete], [0, 2, 3, 5], 4, [0, 2, 3, 4], capped=True) == []
