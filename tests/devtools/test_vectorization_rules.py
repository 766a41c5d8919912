"""Rule tests for R14 (effect-contract) and R15 (kernel-equivalence),
plus the kernel-coverage pin on the real tree."""

from __future__ import annotations

from pathlib import Path

from repro.devtools.rules.vectorization import parse_kernel_contracts

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: The scalar session loops the batched kernels replace.  Each must keep a
#: ``# repro: kernel scalar=...`` registration (so R15 keeps its kernel
#: pinned to it); dropping one means the loop runs un-kernelized unseen.
KERNEL_COVERED_SCALARS = (
    "repro.sim.base:run_many",
    "repro.core.fcat:_FcatSession.run",
    "repro.core.scat:Scat.read_all",
    "repro.baselines.dfsa:Dfsa.read_all",
)


# ---------------------------------------------------------------------------
# R14: effect-contract

def test_matching_pure_contract_is_silent(tree):
    tree.write("repro/core/mod.py", """
        # repro: pure
        def double(x):
            return x * 2
    """)
    assert tree.rule_findings("effect-contract") == []


def test_trailing_contract_on_the_def_line_is_silent(tree):
    tree.write("repro/core/mod.py", """
        def roll(rng):  # repro: effects(reads-rng)
            return rng.normal()
    """)
    assert tree.rule_findings("effect-contract") == []


def test_declared_pure_but_inferred_impure_fires(tree):
    tree.write("repro/core/mod.py", """
        # repro: pure
        def push(acc, x):
            acc.append(x)
    """)
    assert tree.rule_findings("effect-contract") == [
        "repro/core/mod.py:2 effect-contract"]


def test_transitive_effect_violates_a_pure_contract(tree):
    tree.write("repro/core/mod.py", """
        def draw(rng):
            return rng.normal()

        # repro: pure
        def wraps(rng):
            return draw(rng)
    """)
    assert tree.rule_findings("effect-contract") == [
        "repro/core/mod.py:5 effect-contract"]


def test_stale_effect_declaration_fires(tree):
    tree.write("repro/core/mod.py", """
        # repro: effects(reads-rng)
        def double(x):
            return x * 2
    """)
    assert tree.rule_findings("effect-contract") == [
        "repro/core/mod.py:2 effect-contract"]


def test_unknown_effect_name_fires(tree):
    tree.write("repro/core/mod.py", """
        # repro: effects(launches-missiles)
        def f(x):
            return x
    """)
    findings = tree.lint("effect-contract").unsuppressed
    assert len(findings) == 1
    assert "launches-missiles" in findings[0].message


def test_unattached_contract_fires(tree):
    tree.write("repro/core/mod.py", """
        # repro: pure

        def f(x):
            return x
    """)
    assert tree.rule_findings("effect-contract") == [
        "repro/core/mod.py:2 effect-contract"]


# ---------------------------------------------------------------------------
# R15: kernel-equivalence

def test_unregistered_kernel_name_fires(tree):
    tree.write("repro/phy/mod.py", """
        def batched_decode(xs):
            return xs
    """)
    assert tree.rule_findings("kernel-equivalence") == [
        "repro/phy/mod.py:2 kernel-equivalence"]


def test_kernel_suffix_marker_fires_too(tree):
    tree.write("repro/phy/mod.py", """
        def fold_kernel(xs):
            return xs
    """)
    assert tree.rule_findings("kernel-equivalence") == [
        "repro/phy/mod.py:2 kernel-equivalence"]


def test_registered_kernel_with_resolving_scalar_passes(tree):
    tree.write("repro/phy/mod.py", """
        def decode(x):
            return x

        # repro: kernel scalar=repro.phy.mod:decode test=tests/test_kernels.py
        def batched_decode(xs):
            return [decode(x) for x in xs]
    """)
    assert tree.rule_findings("kernel-equivalence") == []


def test_self_referencing_scalar_fires(tree):
    tree.write("repro/phy/mod.py", """
        # repro: kernel scalar=repro.phy.mod:batched_decode test=tests/t.py
        def batched_decode(xs):
            return xs
    """)
    findings = tree.lint("kernel-equivalence").unsuppressed
    assert len(findings) == 1
    assert "itself" in findings[0].message


def test_unresolvable_scalar_reference_fires(tree):
    tree.write("repro/phy/mod.py", """
        # repro: kernel scalar=repro.phy.mod:gone test=tests/t.py
        def batched_decode(xs):
            return xs
    """)
    findings = tree.lint("kernel-equivalence").unsuppressed
    assert len(findings) == 1
    assert "does not resolve" in findings[0].message


def test_malformed_kernel_registration_fires(tree):
    tree.write("repro/phy/mod.py", """
        # repro: kernel scalar-is=missing
        def batched_decode(xs):
            return xs
    """)
    findings = tree.lint("kernel-equivalence").unsuppressed
    assert any("malformed" in finding.message for finding in findings)


def test_non_kernel_functions_are_left_alone(tree):
    tree.write("repro/phy/mod.py", """
        def decode(x):
            return x

        def batch_size(xs):
            return len(xs)
    """)
    assert tree.rule_findings("kernel-equivalence") == []


def test_parse_kernel_contracts_round_trips():
    source = (
        "# repro: kernel scalar=repro.core.fcat:_FcatSession.run "
        "test=tests/kernels/test_fcat_kernel.py\n"
        "def batched(): ...\n"
        "# repro: kernel scalar=broken\n")
    contracts, malformed = parse_kernel_contracts(source)
    assert contracts == {1: ("repro.core.fcat:_FcatSession.run",
                             "tests/kernels/test_fcat_kernel.py")}
    assert malformed == [(3, " scalar=broken")]


def test_scalar_session_loops_stay_covered_by_registered_kernels():
    registered: set[str] = set()
    for path in sorted((REPO_SRC / "repro").rglob("*.py")):
        contracts, _ = parse_kernel_contracts(
            path.read_text(encoding="utf-8"))
        registered.update(scalar for scalar, _test in contracts.values())
    missing = [ref for ref in KERNEL_COVERED_SCALARS
               if ref not in registered]
    assert missing == [], f"no kernel registration covers {missing}"
