"""RPR202 — atomicity: check-then-act split across lock releases, and
unprotected read-modify-write on guarded attributes.

Taking the right lock is not enough if the *decision* and the *action*
happen in different critical sections. ``if key in self._table: ...``
under one ``with self._lock:`` followed by ``self._table[key] = value``
under a second one lets another thread change the table in the gap — the
classic lost-update on a lazily installed cache entry. Likewise
``self._hits += 1`` without the lock is a read-modify-write that loses
increments under contention even though single opcodes look atomic.

Two detections, both over the per-method access stream produced by
:mod:`repro.lintkit.semantic.concurrency`:

* **split check-then-act** — a locked write of a guarded attribute in
  scope *j*, preceded by a locked read of the same attribute in a
  *different* scope *i*, with no re-read inside *j* before the write.
  Re-checking inside the acting scope (double-checked install) is the
  sanctioned fix and is recognized as clean;
* **unlocked RMW** — ``+=``-style augmented assignment of a guarded
  attribute outside every lock scope (unless the method is a lock-scope
  extension — see RPR201's helper escape).
"""

from __future__ import annotations

from typing import Iterator, List

from ..findings import Finding, Severity
from ..semantic.concurrency import (
    INIT_METHODS,
    WRITE_KINDS,
    AttrAccess,
    MethodSummary,
)
from ..semantic.symbols import module_name_for
from .base import FileContext, Rule, register

__all__ = [
    "AtomicityRule",
]

#: Access kinds that count as "observing" an attribute for re-check
#: purposes (an augmented assignment reads before it writes).
_READ_KINDS = frozenset({"read", "augwrite"})


@register
class AtomicityRule(Rule):
    """Flag non-atomic check-then-act and unlocked read-modify-write."""

    rule_id = "RPR202"
    name = "atomicity"
    severity = Severity.ERROR
    description = (
        "check-then-act on guarded state must not span lock releases, "
        "and read-modify-write of guarded attributes must hold the lock"
    )
    rationale = (
        "A decision made under one lock acquisition is stale by the time "
        "a second acquisition acts on it; and `x += 1` is a read plus a "
        "write, so without the lock concurrent increments overwrite each "
        "other. Both lose updates only under contention, which is why "
        "they survive single-threaded tests."
    )
    example_bad = (
        "def install(self, key, value):\n"
        "    with self._lock:\n"
        "        if key in self._table:\n"
        "            return\n"
        "    value = expensive_build(key)\n"
        "    with self._lock:\n"
        "        self._table[key] = value  # raced: no re-check\n"
    )
    example_good = (
        "def install(self, key, value):\n"
        "    with self._lock:\n"
        "        if key in self._table:\n"
        "            return\n"
        "    value = expensive_build(key)\n"
        "    with self._lock:\n"
        "        if key not in self._table:  # double-checked install\n"
        "            self._table[key] = value\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.project is None:
            return
        module_name = module_name_for(ctx.package_relpath, ctx.path)
        module = ctx.project.modules.get(module_name)
        if module is None:
            return
        conc = ctx.project.concurrency()
        for class_name in sorted(module.classes):
            cls = module.classes[class_name]
            cc = conc.classes.get(cls.qualname)
            if cc is None or not cc.locks or not cc.guarded:
                continue
            for method_name in sorted(cc.methods):
                summary = cc.methods[method_name]
                if summary.name in INIT_METHODS:
                    continue
                yield from self._check_unlocked_rmw(ctx, cc, summary)
                yield from self._check_split_check_act(ctx, cls.name, cc, summary)

    def _check_unlocked_rmw(
        self, ctx: FileContext, cc, summary: MethodSummary
    ) -> Iterator[Finding]:
        conc = ctx.project.concurrency()
        for access in summary.accesses:
            if (
                access.kind == "augwrite"
                and access.lock is None
                and access.attr in cc.guarded
            ):
                if conc.always_called_locked(
                    ctx.project, cc, summary.qualname
                ):
                    continue
                lock = sorted(cc.guarded[access.attr])[0]
                yield ctx.finding(
                    self,
                    access.node,
                    f"read-modify-write of guarded {access.attr!r} outside "
                    f"a lock scope loses updates under contention",
                    suggestion=f"perform the update inside "
                    f"`with self.{lock}:`",
                )

    def _check_split_check_act(
        self, ctx: FileContext, class_name: str, cc, summary: MethodSummary
    ) -> Iterator[Finding]:
        for attr in sorted(cc.guarded):
            accesses: List[AttrAccess] = [
                a for a in summary.accesses if a.attr == attr
            ]
            locked_writes = [
                a
                for a in accesses
                if a.kind in WRITE_KINDS and a.scope is not None
            ]
            locked_reads = [
                a
                for a in accesses
                if a.kind in _READ_KINDS and a.scope is not None
            ]
            for write in locked_writes:
                line = getattr(write.node, "lineno", 0)
                checked_elsewhere = any(
                    read.scope != write.scope
                    and getattr(read.node, "lineno", 0) < line
                    for read in locked_reads
                )
                rechecked_here = any(
                    read.scope == write.scope
                    and getattr(read.node, "lineno", 0) <= line
                    for read in locked_reads
                )
                if checked_elsewhere and not rechecked_here:
                    yield ctx.finding(
                        self,
                        write.node,
                        f"write to {class_name}.{attr} acts on a check made "
                        f"under an earlier lock acquisition; the state may "
                        f"have changed in between",
                        suggestion="re-check the condition inside this lock "
                        "scope (double-checked install) or hold the lock "
                        "across check and act",
                    )
