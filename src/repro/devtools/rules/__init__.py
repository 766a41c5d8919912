"""Lint rules for the repro codebase, grouped by invariant.

Importing this package populates the registry: each rule module applies the
:func:`~repro.devtools.rules.registry.register` decorator at import time.
R1--R4 are the per-file/per-project families from the first devtools
iteration; R5--R8 (units, probability domain, rng reachability, experiment
registry) are the whole-program families that run over the pass-1 index;
R9 (event-schema) pins observability emit sites to the declared schema;
R10--R11 (rng order-sensitivity, fork-safety) are the data-flow families
built on :mod:`repro.devtools.dataflow`; R14--R15 (effect contracts,
kernel equivalence) are the vectorization-readiness families built on
:mod:`repro.devtools.effects`.
"""

from repro.devtools.rules.base import (
    ModuleContext,
    ProjectContext,
    Rule,
)
from repro.devtools.rules.registry import (
    create_rules,
    describe_rules,
    register,
    rule_names,
)

# Importing for side effect: these modules register their rules.
from repro.devtools.rules import api as _api
from repro.devtools.rules import concurrency as _concurrency
from repro.devtools.rules import determinism as _determinism
from repro.devtools.rules import experiments as _experiments
from repro.devtools.rules import numeric as _numeric
from repro.devtools.rules import observability as _observability
from repro.devtools.rules import probability as _probability
from repro.devtools.rules import protocol as _protocol
from repro.devtools.rules import reachability as _reachability
from repro.devtools.rules import units as _units
from repro.devtools.rules import vectorization as _vectorization

__all__ = [
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "create_rules",
    "describe_rules",
    "register",
    "rule_names",
]
