"""Counters on the routines that form MR's weight parts and read its designs.

``count_formations(monkeypatch)`` wraps, for one test, the one routine of
each weight part (``DoseWeights.form``, ``ControlWeights.form``), pi_a's
evaluation ``PropensityModel.__call__``, ``WindowedMoments.__init__`` and
``CovariateDesign.assemble``, and returns the Counter they fill, keyed
"dose weights", "control weights", "pi_a(X)", "windows" and "designs".
"""

from __future__ import annotations

from collections import Counter

from dosedid import numeric, nuisance, pseudo


def count_formations(monkeypatch) -> Counter:
    counts: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # The bound classmethods keep their class; a staticmethod passes the
    # arguments through unchanged.
    for owner, name in ((pseudo.DoseWeights, "dose weights"), (pseudo.ControlWeights, "control weights")):
        monkeypatch.setattr(owner, "form", staticmethod(counted(name, owner.form)))
    monkeypatch.setattr(nuisance.PropensityModel, "__call__", counted("pi_a(X)", nuisance.PropensityModel.__call__))
    monkeypatch.setattr(numeric.WindowedMoments, "__init__", counted("windows", numeric.WindowedMoments.__init__))
    monkeypatch.setattr(nuisance.CovariateDesign, "assemble", counted("designs", nuisance.CovariateDesign.assemble))
    return counts
