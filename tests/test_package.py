"""The package as a user meets it: the names ``varbounds`` exports, and the README's Python examples."""

import re
import types
from pathlib import Path

import pytest

import varbounds

README = Path(__file__).parent.parent / "README.md"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)

# Every export is a promise: adding or removing one is an edit here.
EXPORTED = {
    "AtomicMeasure", "BoundsReport", "C1Violation", "C2Function", "ChainError", "ChainStatus", "ChainVerdict",
    "ConvexPayoff", "DualExistence", "DualSolution", "HedgePortfolio", "InvalidPayoff", "LocalTimeProfile",
    "NegativeWeight", "NonMonotone", "NormalizedChain", "OptionChain", "PartitionLadder", "PriceVerdict",
    "ReconstructionFailure", "SampledPath", "UpperBound", "VerdictStatus", "WeightSpec",
    "arithmetic_walk", "bounds_payload", "build_dyadic_ladder", "check_c1", "classify_european",
    "classify_rate_against_bounds", "classify_swap_quote", "discrete_local_time", "dp_lower_bound",
    "dual_existence_lb", "extremal_upper_measure", "feasible_policy_sets", "follmer_integral", "geometric_walk",
    "grid_lp_oracle", "ladder_checks", "load_chain", "make_payoff", "normalize", "occupation_density_check",
    "parse_weight", "quadratic_variation", "reconstruct_subhedge", "superhedge", "swap_rate_bounds", "tighten_tail",
    "transform_local_time", "transform_local_times", "validate_puts", "verify_ito", "vol_points",
}


def test_exported_names():
    exported = {name for name, value in vars(varbounds).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(EXPORTED) == 55
    assert exported == EXPORTED


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})
