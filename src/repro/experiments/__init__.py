"""Experiment modules — one per reproduced claim of the paper.

Import :data:`repro.experiments.registry.EXPERIMENTS` (or use
``python -m repro list``) to enumerate them.
"""

from repro.experiments.common import ExperimentResult, ResultTable

__all__ = ["ExperimentResult", "ResultTable", "EXPERIMENTS"]


def __getattr__(name):
    # registry imports the experiment modules, which import common; expose
    # it lazily to keep `import repro.experiments` light and cycle-free.
    if name in ("EXPERIMENTS", "Experiment"):
        from repro.experiments import registry

        return getattr(registry, name)
    raise AttributeError(f"module 'repro.experiments' has no attribute {name!r}")
