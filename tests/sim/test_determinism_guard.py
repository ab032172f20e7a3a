"""The AST guard against implicit global-random use in the simulator."""

import pytest

from repro.chaos import (
    DeterminismError,
    forbid_global_random,
    global_random_uses,
)


def test_sim_and_fed_packages_are_clean():
    # The shipped simulator and federation layer must never consume
    # global random state; the chaos CLI refuses to run otherwise.
    forbid_global_random()


def test_default_scan_covers_fed_package(tmp_path, monkeypatch):
    """The no-argument guard must scan ``repro.fed`` too — admission
    control's arrival generators draw randomness there, and an implicit
    global draw would break every concurrent scenario's determinism."""
    import repro.fed

    offender = tmp_path / "arrivals.py"
    offender.write_text("import random\ngap = random.expovariate(1.0)\n")
    monkeypatch.setattr(repro.fed, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(DeterminismError) as excinfo:
        forbid_global_random()
    assert "arrivals.py:2" in str(excinfo.value)


def _guard_only(root, monkeypatch):
    """Point the guard's two packages at *root*."""
    import repro.fed
    import repro.sim

    for package in (repro.fed, repro.sim):
        monkeypatch.setattr(package, "__file__", str(root / "__init__.py"))


def test_flags_module_level_random_calls(tmp_path, monkeypatch):
    offender = tmp_path / "offender.py"
    offender.write_text(
        "import random\n"
        "def jitter():\n"
        "    return random.random() * random.uniform(0, 5)\n"
        "def pick(items):\n"
        "    random.shuffle(items)\n"
        "    return random.choice(items)\n"
    )
    uses = global_random_uses(tmp_path)
    attrs = [use.rsplit("random.", 1)[1] for use in uses]
    assert sorted(attrs) == ["choice", "random", "shuffle", "uniform"]
    _guard_only(tmp_path, monkeypatch)
    with pytest.raises(DeterminismError) as excinfo:
        forbid_global_random()
    assert "offender.py:3" in str(excinfo.value)
    assert "derive_rng" in str(excinfo.value)


def test_seeded_instances_are_allowed(tmp_path, monkeypatch):
    clean = tmp_path / "clean.py"
    clean.write_text(
        "import random\n"
        "def make(seed):\n"
        "    rng = random.Random(seed)\n"
        "    return rng.random()\n"
    )
    assert global_random_uses(tmp_path) == []
    _guard_only(tmp_path, monkeypatch)
    forbid_global_random()


def test_bare_references_without_call_are_flagged(tmp_path):
    sneaky = tmp_path / "sneaky.py"
    sneaky.write_text(
        "import random\n"
        "draw = random.random\n"
    )
    uses = global_random_uses(tmp_path)
    assert len(uses) == 1 and uses[0].endswith("random.random")


def test_scans_single_file(tmp_path):
    target = tmp_path / "one.py"
    target.write_text("import random\nx = random.randint(0, 5)\n")
    assert len(global_random_uses(target)) == 1
