"""Model-reply parsing: recover an action, an optional attack target,
and an optional cooperation command from free-form text.

Marker strings are fixed, case-sensitive constants identical to the
prompt templates (English and Chinese share the action tokens). When a
reply restates a marker several times, the last occurrence wins. A
malformed reply is a valid parse result with format_ok=False, never an
error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .stages import coop_format, is_navigation
from .types import Action, CoopCommand, CoopKind

# which markers a stage uses, and whether it needs a target clause, follows
# from its default config (stages.coop_format, stages.is_navigation):
# cooperation stages use the attack marker plus the cooperation marker, the
# others the operation one, and every combat stage names a target
OP_MARKERS = ("#Operation:", "#操作:")
ATTACK_MARKERS = ("#Attack operation:", "#攻击操作:")
COOP_MARKERS = ("#Cooperation operation:", "#协作操作:")

_TOKEN_RE = re.compile("|".join(re.escape(a.value) for a in Action))
_TARGET_RE = re.compile(r"Target\s*(\d+)\s*[:：]")
_REQUEST_RE = re.compile(r"#Request_coop#\D*?(\d+)\D*?[:：]\s*(.*)", re.S)


# the answer tokens, in the order a segment is searched for them
_ANSWER_TOKENS = {
    CoopKind.KEEP: "#Keep_coop#",
    CoopKind.STOP: "#Stop_coop#",
    CoopKind.NO: "#No_coop#",
}

NO_COOP = CoopCommand(CoopKind.NO)


@dataclass(frozen=True)
class ParsedAction:
    """Structured result of parsing one reply."""

    action: Action | None
    target_id: int | None
    coop: CoopCommand | None
    format_ok: bool
    raw: str = ""


def parse_response(stage_id: int, raw: str) -> ParsedAction:
    """Scan a raw reply for the stage's markers.

    format_ok requires the stage's operation marker followed on the same
    line by exactly one of the five action tokens, plus a well-formed
    "Target <int>" clause on stages that declare attack targets. The
    cooperation line is optional; a malformed one only drops that turn's
    cooperation command.
    """
    coop_stage = coop_format(stage_id)
    markers = ATTACK_MARKERS if coop_stage else OP_MARKERS
    segment = _last_marker_segment(raw, markers)
    coop = _parse_coop(raw) if coop_stage else None

    if segment is None:
        return ParsedAction(None, None, coop, False, raw)

    tokens = _TOKEN_RE.findall(segment)
    if len(tokens) != 1:
        return ParsedAction(None, None, coop, False, raw)
    action = Action(tokens[0])

    target_id = None
    if not is_navigation(stage_id):
        m = _TARGET_RE.search(segment)
        if m is None:
            return ParsedAction(None, None, coop, False, raw)
        target_id = int(m.group(1))

    return ParsedAction(action, target_id, coop, True, raw)


def _last_marker_segment(raw: str, markers: tuple[str, ...]) -> str | None:
    """Text between the last occurrence of any marker and its line end."""
    best = -1
    best_end = -1
    for marker in markers:
        idx = raw.rfind(marker)
        if idx > best:
            best = idx
            best_end = idx + len(marker)
    if best < 0:
        return None
    line_end = raw.find("\n", best_end)
    return raw[best_end : line_end if line_end >= 0 else len(raw)]


def _parse_coop(raw: str) -> CoopCommand | None:
    segment = _last_marker_segment(raw, COOP_MARKERS)
    if segment is None:
        return None
    m = _REQUEST_RE.search(segment)
    if "#Request_coop#" in segment:
        if m is None:
            return None  # request without a parseable recipient
        return CoopCommand(CoopKind.REQUEST, int(m.group(1)), m.group(2).strip())
    for kind, token in _ANSWER_TOKENS.items():
        if token in segment:
            return CoopCommand(kind)
    return None


def format_reply(
    stage_id: int,
    action: Action,
    target_id: int | None = None,
    coop: CoopCommand | None = None,
) -> str:
    """Render a reply in the stage's canonical output format.

    Local decision-makers use this, which guarantees their replies parse
    back to the same action/target/coop triple.
    """
    coop_stage = coop_format(stage_id)
    marker = (ATTACK_MARKERS if coop_stage else OP_MARKERS)[0]
    target = "" if is_navigation(stage_id) else f" Target {target_id or 0}:"
    line = f"{marker}{target} {action.value}"
    if coop is not None and coop_stage:
        line += f"\n{COOP_MARKERS[0]} {_format_coop(coop)}"
    return line


def _format_coop(coop: CoopCommand) -> str:
    if coop.kind is CoopKind.REQUEST:
        return f"#Request_coop# {coop.to}: {coop.message}"
    return _ANSWER_TOKENS[coop.kind]
