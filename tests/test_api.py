"""The package ships what its commands run.

Helpers that only tests reach live in the reference modules under
``tests/`` (``oracle_reference``, ``occupation_reference``), or are gone
where a shipped twin does the same work.  None of them may come back
into ``brwlab`` unnoticed.  Importing the package builds no
``typing.ForwardRef``.
"""

import importlib
import subprocess
import sys

import brwlab

MODULES = ("brw", "cli", "errors", "mc", "offspring", "oracle", "rng", "spine")

# tests-only names that no module of the package, nor the package, defines
TESTS_ONLY = (
    # brw; the batched engine reduces with _segment_log_sum_exp
    "NodeRecord", "generation_sizes", "log_sum_exp",
    # spine; SpinedTree holds the ray and its weights
    "rn_log_weight", "spine_positions", "sample_spine_walk", "LevelOutOfRangeError",
    # offspring; brw._atoms draws broods
    "sample_realization",
    # mc; the estimators evaluate _functional_values
    "functional_on_tree", "functional_on_outcome", "_functional_value",
    # the tuple oracle, now in oracle_reference
    "enumerate_spined_trees", "_spined_probability", "iter_rays", "outcome_probability",
    "generation_positions", "w_value", "restrict", "ray_positions", "Ray",
)


def test_tests_only_helpers_stay_out_of_the_package():
    modules = [brwlab, *(importlib.import_module(f"brwlab.{name}") for name in MODULES)]
    found = [f"{module.__name__}.{name}" for module in modules for name in TESTS_ONLY
             if hasattr(module, name)]
    if hasattr(brwlab.LabelledTree, "node"):
        found.append("brwlab.brw.LabelledTree.node")
    assert not found


# imports the package as a command does and prints the strings of the
# typing.ForwardRef objects built meanwhile; numpy and click come first, so
# that only brwlab's own are counted
_FORWARD_REFS = """
import typing
import click, numpy
made = []
init = typing.ForwardRef.__init__
def counted(self, arg, *args, **kwargs):
    made.append(arg)
    init(self, arg, *args, **kwargs)
typing.ForwardRef.__init__ = counted
import brwlab, brwlab.cli, brwlab.spine
print(made)
"""


def test_import_builds_no_forward_refs():
    # a NamedTuple field annotated with a string, as every annotation is
    # under ``from __future__ import annotations``, becomes a ForwardRef,
    # and each one compiles its string at import
    proc = subprocess.run([sys.executable, "-c", _FORWARD_REFS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
