"""The benchmark tracer wraps bagel functions by name: it must still
install, count what it wraps and put every original back."""

import os
import types

from bagel import cli, constraints, numerics, prior_nmf, smart_design

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "tracer.py")


def load_tracer():
    """benchmarks/tracer.py as a module, compiled without writing bytecode
    next to it."""
    module = types.ModuleType("tracer")
    with open(TRACER) as fh:
        exec(compile(fh.read(), TRACER, "exec"), module.__dict__)
    return module


def test_tracer_installs_counts_and_restores(tmp_path):
    owners = (cli, smart_design, prior_nmf, numerics, constraints,
              smart_design.SmartDesignProblem, prior_nmf.PriorNmfProblem)
    before = [dict(vars(owner)) for owner in owners]
    sd, nmf = str(tmp_path / "sd.json"), str(tmp_path / "nmf.json")
    assert cli.main(["generate", "--problem", "smart-design", "--n", "10", "--samples", "100",
                     "--cost", "0.6", "--seed", "1", "--out", sd]) == 0
    assert cli.main(["generate", "--problem", "prior-nmf", "--n", "20", "--seed", "1",
                     "--out", nmf]) == 0

    tracer = load_tracer().Tracer()
    tracer.install(cli, smart_design, prior_nmf, numerics, constraints)
    try:
        assert cli.main(["solve", "--instance", sd, "--out", str(tmp_path / "sd.csv"),
                         "--folds", "1"]) == 0
        assert cli.main(["solve", "--instance", nmf, "--out", str(tmp_path / "nmf.csv"),
                         "--iters", "20", "--node-cap", "5"]) == 0
    finally:
        tracer.restore()

    assert tracer.ncalls("smart_design.train") > 0
    # the CLI builds each instance through its module's load_instance
    assert tracer.ncalls("cli.load_instance") == 2
    assert tracer.ncalls("prior_nmf.nmf_build_mask") > 0
    # the planted reference loss, trained once after the search
    assert tracer.ncalls("prior_nmf.nmf_generate_and_train", "cli.main") == 1
    for owner, attrs in zip(owners, before):
        now = vars(owner)
        assert now.keys() == attrs.keys()
        assert all(now[name] is value for name, value in attrs.items()), owner
