"""detlint: AST-based determinism & sim-safety lint for this repo.

The repo's core guarantee — seeded runs are bit-identical — keeps being
threatened by the same few Python hazard classes (process-global counters,
id()-ordered set iteration, wall-clock reads, pickled memo caches).  This
package catches them statically, at commit time, instead of at runtime via
expensive sweeps.  See ANALYSIS.md for the rule catalogue and the historical
bug each rule encodes; run ``python -m repro.analysis src/``.
"""

from repro.analysis.framework import (
    Finding,
    ModuleContext,
    Rule,
    all_rules,
    analyze_paths,
    analyze_source,
    get_rule,
    register,
)

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "get_rule",
    "register",
]
