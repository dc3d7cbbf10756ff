"""Parity-gate audit (``parity-gap``).

The repo's standing contract is that every serving shape is gated
bitwise-equal to per-call inference under ``compute_dtype="float64"``.
This project-level rule cross-references the public forward-shaped entry
points of the serving surface (``api/`` modules) against ``tests/``: a
public method named ``forward``/``forward_packed``/``pooled``/``classify``/
``serve``/``serve_one`` reachable on a public class must be
named — together with its class and the token ``float64`` — by at least one
test file.  A new serving API with no parity test is exactly the rot this
package exists to catch.

Attribution rides on the whole-program class index: a class with
project-internal subclasses is an abstract seam (``ReplicaPool``), and the
thing actually exercised by callers — and therefore the thing that needs a
parity test under its own name — is each concrete *leaf* subclass, with
every entry point it defines **or inherits**.  (The pre-facts version
attributed inherited methods to the abstract base, so a leaf pool with no
parity tests at all could hide behind its parent's coverage.)

The rule only runs when the analysis is given a tests directory (the CLI
passes ``<root>/tests`` automatically when it exists), so scanning a
stray file elsewhere never produces spurious gaps.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from ..findings import Finding

__all__ = ["ParityGateRule", "HOT_ENTRY_POINTS"]

HOT_ENTRY_POINTS = frozenset(
    {
        "forward",
        "forward_packed",
        "pooled",
        "classify",
        "serve",
        "serve_one",
    }
)


class ParityGateRule:
    rule_ids = ("parity-gap",)

    def check_project(self, ctx) -> Iterable[Finding]:
        tests_dir = ctx.tests_dir
        if tests_dir is None or not Path(tests_dir).is_dir():
            return []
        test_texts: List[str] = []
        for test_file in sorted(Path(tests_dir).rglob("test_*.py")):
            try:
                test_texts.append(test_file.read_text(encoding="utf-8"))
            except OSError:
                continue
        facts = ctx.facts
        findings: List[Finding] = []
        for cls in sorted(facts.classes.values(), key=lambda c: c.qualname):
            if not cls.public or "/api/" not in f"/{cls.module}":
                continue
            if facts.subclasses.get(cls.qualname):
                # Abstract seam: its entry points are audited on each
                # concrete leaf, under the leaf's own name.
                continue
            for method, line in self._entry_points(facts, cls):
                if self._covered(cls.name, method, test_texts):
                    continue
                findings.append(
                    Finding(
                        rule="parity-gap",
                        path=cls.module,
                        line=line,
                        col=0,
                        message=(
                            f"{cls.name}.{method} is a public serving "
                            "entry point but no test file names it together "
                            "with a float64 parity check"
                        ),
                        symbol=f"{cls.name}.{method}",
                    )
                )
        return findings

    @staticmethod
    def _entry_points(facts, cls) -> List[Tuple[str, int]]:
        """(method, report line) for every hot entry point the class
        defines or inherits from a project class, innermost-MRO first."""
        out: Dict[str, int] = {}
        for qualname in facts.mro(cls.qualname):
            owner = facts.classes[qualname]
            for method, func_qual in owner.methods.items():
                if method not in HOT_ENTRY_POINTS or method in out:
                    continue
                if owner is cls:
                    line = facts.functions[func_qual].lineno
                else:
                    # Inherited: point at the leaf class definition — that
                    # is where the missing parity coverage belongs.
                    line = cls.lineno
                out[method] = line
        return sorted(out.items())

    @staticmethod
    def _covered(class_name: str, method: str, test_texts: List[str]) -> bool:
        for text in test_texts:
            if class_name in text and method in text and "float64" in text:
                return True
        return False
