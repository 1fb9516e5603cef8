"""Rule family 4 (OPQ4xx): SPMD communication safety.

The parallel algorithm (paper section 3) is SPMD: every processor runs the
same program, and point-to-point transfers appear in the source once per
endpoint role — the branch a sender executes contains ``send(me, partner)``
and the branch its partner executes must contain the mirrored
``send(partner, me)``.  On the :class:`repro.parallel.machine` API a
mismatch does not crash: clocks silently advance as if the transfer
happened, and every timing table built on top of them (Tables 8-12) becomes
fiction.  These rules are the static deadlock/race detector for that API:
they match sends to their mirrored receives per step, and flag
self-messages, unmatched sends, and mirror pairs issued in head-to-head
blocking order.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Finding, ModuleContext, Rule, dotted_name
from repro.analysis.registry import register

__all__ = [
    "SelfMessageRule",
    "UnmatchedSendRule",
    "ReorderedSendRule",
    "UnboundedBlockingRule",
]

#: Point-to-point primitives: (attribute name, how many endpoint args).
_POINT_TO_POINT = {"send": 2, "exchange": 2}


def _comm_calls(root: ast.AST, attrs: tuple[str, ...]) -> list[ast.Call]:
    """Communication calls under ``root``, in source order."""
    calls = []
    for node in ast.walk(root):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in attrs
            and len(node.args) >= 2
        ):
            calls.append(node)
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


def _endpoint_key(node: ast.expr) -> str:
    """Canonical form of an endpoint expression for matching."""
    return ast.dump(node)


@register
class SelfMessageRule(Rule):
    """A processor must not message itself."""

    rule_id = "spmd-self-message"
    code = "OPQ401"
    description = (
        "send/exchange whose source and destination are the same "
        "expression; a self-message is a deadlock on a blocking machine"
    )
    paper_ref = "section 3 (two-level machine model)"
    scope_prefixes = ("parallel/",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in _comm_calls(ctx.tree, ("send", "exchange")):
            src, dst = call.args[0], call.args[1]
            if _endpoint_key(src) == _endpoint_key(dst):
                name = dotted_name(call.func) or "send"
                yield ctx.finding(
                    self,
                    call,
                    f"{name}() with identical endpoints "
                    f"({ast.unparse(src)}); a processor cannot message "
                    "itself",
                )


def _branch_sends(branch: list[ast.stmt]) -> list[ast.Call]:
    calls = []
    for stmt in branch:
        calls.extend(_comm_calls(stmt, ("send",)))
    return calls


def _mirror_index(
    send: ast.Call, candidates: list[ast.Call]
) -> int | None:
    """Index in ``candidates`` of the mirrored (dst, src) send, if any."""
    want = (_endpoint_key(send.args[1]), _endpoint_key(send.args[0]))
    for i, cand in enumerate(candidates):
        have = (_endpoint_key(cand.args[0]), _endpoint_key(cand.args[1]))
        if have == want:
            return i
    return None


def _role_branches(tree: ast.Module) -> Iterator[tuple[list[ast.stmt], list[ast.stmt]]]:
    """if/else pairs where both branches perform point-to-point sends.

    These are the SPMD role dispatches: one branch is executed by one
    endpoint of a transfer, the other branch by its partner, so their
    sends must mirror each other.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.If) or not node.orelse:
            continue
        if _branch_sends(node.body) and _branch_sends(node.orelse):
            yield node.body, node.orelse


@register
class UnmatchedSendRule(Rule):
    """Every send in a role branch needs a mirrored send in the sibling."""

    rule_id = "spmd-unmatched-send"
    code = "OPQ402"
    description = (
        "send with no mirrored send(dst, src) in the sibling SPMD role "
        "branch; the partner never completes the transfer"
    )
    paper_ref = "section 3 (matched communication per merge step)"
    scope_prefixes = ("parallel/",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for body, orelse in _role_branches(ctx.tree):
            body_sends = _branch_sends(body)
            else_sends = _branch_sends(orelse)
            for sends, partners in ((body_sends, else_sends), (else_sends, body_sends)):
                for send in sends:
                    if _mirror_index(send, partners) is None:
                        yield ctx.finding(
                            self,
                            send,
                            f"send({ast.unparse(send.args[0])}, "
                            f"{ast.unparse(send.args[1])}) has no mirrored "
                            "send in the sibling branch; the partner side "
                            "of the transfer is missing",
                        )


@register
class ReorderedSendRule(Rule):
    """Mirrored send pairs must be issued in the same relative order."""

    rule_id = "spmd-reordered-send"
    code = "OPQ403"
    description = (
        "mirrored sends issued in opposite order across SPMD role "
        "branches; on a blocking machine both sides wait head-to-head"
    )
    paper_ref = "section 3 (bitonic/sample merge step ordering)"
    scope_prefixes = ("parallel/",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for body, orelse in _role_branches(ctx.tree):
            else_sends = _branch_sends(orelse)
            matched = [
                (send, pos)
                for send in _branch_sends(body)
                if (pos := _mirror_index(send, else_sends)) is not None
            ]
            for (_, pos_a), (send_b, pos_b) in zip(matched, matched[1:]):
                if pos_b < pos_a:
                    yield ctx.finding(
                        self,
                        send_b,
                        "mirrored sends appear in opposite order in the "
                        "two role branches; reorder one side so partners "
                        "pair up first-to-first",
                    )
                    break


#: Blocking primitives that accept a ``timeout=`` keyword and block
#: forever without one: Queue.get, Barrier/Event/Condition.wait,
#: Thread/Process.join, Lock/Semaphore.acquire.
_BLOCKING_ATTRS = ("get", "wait", "join", "acquire")


@register
class UnboundedBlockingRule(Rule):
    """Real-backend blocking calls must carry a timeout.

    The backend contract (``repro.parallel.backends.base``) promises that
    a dead or wedged worker surfaces as a typed
    :class:`~repro.errors.ParallelError`, never a hang.  An unbounded
    ``queue.get()`` / ``barrier.wait()`` / ``worker.join()`` /
    ``lock.acquire()`` breaks that promise the moment a peer dies between
    the send and the receive.  Only zero-argument attribute calls are
    flagged: ``dict.get(key)``, ``str.join(parts)`` and ``worker.join(5.0)``
    all pass positional arguments and are out of scope.

    The asyncio wire layer (``service/aio.py``) makes the same promise —
    a stalled shard must surface as a typed error frame, never wedge the
    event loop — so it is in scope too; its blocking service calls run
    under ``asyncio.wait_for``.  So does the multi-tenant registry
    (``service/tenancy/``): its shard locks sit on the keyed request
    path, where an unbounded ``acquire()`` would wedge every tenant
    behind one stuck key.
    """

    rule_id = "spmd-unbounded-blocking"
    code = "OPQ404"
    description = (
        "blocking primitive (get/wait/join/acquire) called with no "
        "timeout in a real execution backend or the service wire layer; "
        "a dead peer turns the call into a hang instead of a typed error"
    )
    paper_ref = "backends contract (fail typed, never hang)"
    scope_prefixes = (
        "parallel/backends/",
        "service/aio.py",
        "service/tenancy/",
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        bounded = self._wait_for_bounded(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _BLOCKING_ATTRS
            ):
                continue
            if node.args:  # dict.get(key), "".join(seq), join(5.0): bounded
                continue
            if any(kw.arg == "timeout" for kw in node.keywords):
                continue
            if id(node) in bounded:
                continue
            name = dotted_name(node.func) or node.func.attr
            yield ctx.finding(
                self,
                node,
                f"{name}() blocks forever if the peer died; pass "
                "timeout= and convert expiry into a ParallelError",
            )

    @staticmethod
    def _wait_for_bounded(tree: ast.AST) -> set[int]:
        """ids of calls bounded by an enclosing ``asyncio.wait_for``.

        ``await asyncio.wait_for(queue.get(), timeout=t)`` is the asyncio
        spelling of a bounded wait: the awaitable built by the inner call
        is cancelled when the deadline passes, so the inner primitive
        needs no timeout of its own.  A ``wait_for`` with no deadline
        argument bounds nothing.
        """
        bounded: set[int] = set()
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Attribute, ast.Name))
                and (dotted_name(node.func) or "").rsplit(".", 1)[-1]
                == "wait_for"
            ):
                continue
            has_deadline = len(node.args) >= 2 or any(
                kw.arg == "timeout" for kw in node.keywords
            )
            if not has_deadline:
                continue
            for arg in node.args[:1]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Call):
                        bounded.add(id(sub))
        return bounded
