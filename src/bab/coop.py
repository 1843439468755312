"""Cooperation-message routing between agents.

A request lands in the recipient's mailbox and surfaces in their next
observation. Whether the recipient accepts is inferred from their next
cooperation command: a request back to the proposer or #Keep_coop# means
accepted; #Stop_coop# or #No_coop# means rejected. The world's message
history is the one record: a pair cooperates while a message between
them stands accepted, and #Stop_coop# marks every accepted message that
names the sender stopped.

The stage topology gates delivery: intra-team stages route only between
teammates, inter-team only across teams, hybrid stages allow both. With
cooperation disabled (the ablation), every command is discarded and
mailboxes stay untouched.
"""

from __future__ import annotations

import logging

from .parsing import ParsedAction
from .types import (
    CoopCommand,
    CoopEvent,
    CoopKind,
    CoopMessage,
    CoopTopology,
    Disposition,
    TankKind,
    WorldState,
)

log = logging.getLogger(__name__)


def route_coop(
    world: WorldState,
    turn_actions: dict[int, ParsedAction],
    coop_enabled: bool = True,
) -> list[CoopEvent]:
    """Apply this turn's cooperation commands in agent-id order; returns
    the routed events, one ``coop`` log line each, which replay compares
    whole."""
    if not coop_enabled:
        return []
    events: list[CoopEvent] = []
    for agent_id in sorted(turn_actions):
        coop = turn_actions[agent_id].coop
        if coop is None:
            continue
        sender = world.tanks.get(agent_id)
        if sender is None or not sender.alive:
            continue
        events.extend(_settle_pending(world, agent_id, coop))
        if coop.kind is CoopKind.REQUEST:
            events.append(_route_request(world, agent_id, coop))
        elif coop.kind is CoopKind.STOP:
            stopped = _accepted(world, agent_id)
            for msg in stopped:
                msg.disposition = Disposition.STOPPED
            if stopped:
                events.append(CoopEvent(world.turn, "stop", agent_id))
        elif coop.kind is CoopKind.KEEP:
            if _accepted(world, agent_id):
                events.append(CoopEvent(world.turn, "keep", agent_id))
    return events


def _settle_pending(world: WorldState, agent_id: int, coop: CoopCommand) -> list[CoopEvent]:
    """Resolve requests the agent has already seen, per its command."""
    events: list[CoopEvent] = []
    for msg in world.coop_history:
        if (
            msg.to_id != agent_id
            or msg.disposition is not Disposition.PENDING
            or msg.turn >= world.turn
        ):
            continue
        accepted = coop.kind is CoopKind.KEEP or (
            coop.kind is CoopKind.REQUEST and coop.to == msg.from_id)
        msg.disposition = Disposition.ACCEPTED if accepted else Disposition.REJECTED
        events.append(CoopEvent(world.turn, "accept" if accepted else "reject", agent_id,
                                to=msg.from_id))
    return events


def _route_request(world: WorldState, sender_id: int, coop: CoopCommand) -> CoopEvent:
    reason = _drop_reason(world, sender_id, coop.to)
    if reason is not None:
        log.debug("dropping coop request %s->%s: %s", sender_id, coop.to, reason)
        return CoopEvent(world.turn, "drop", sender_id, to=coop.to, message=coop.message,
                         reason=reason)
    world.coop_history.append(
        CoopMessage(turn=world.turn, from_id=sender_id, to_id=coop.to, body=coop.message)
    )
    return CoopEvent(world.turn, "request", sender_id, to=coop.to, message=coop.message)


def _drop_reason(world: WorldState, sender_id: int, to_id: int | None) -> str | None:
    # senders are live agents on a stage whose topology is not none: replies
    # come from live agents only, and only cooperation stages parse a coop line
    recipient = world.tanks.get(to_id) if to_id is not None else None
    if recipient is None or not recipient.alive or recipient.kind is not TankKind.AGENT:
        return "recipient is not a live agent"
    if recipient.id == sender_id:
        return "self-addressed request"
    topology = world.config.coop_topology
    same_team = world.tanks[sender_id].team == recipient.team
    if topology is CoopTopology.INTRA_TEAM and not same_team:
        return "cross-team request in an intra-team stage"
    if topology is CoopTopology.INTER_TEAM and same_team:
        return "same-team request in an inter-team stage"
    return None


def _accepted(world: WorldState, agent_id: int) -> list[CoopMessage]:
    """The accepted messages that name the agent, as sender or recipient."""
    return [m for m in world.coop_history
            if m.disposition is Disposition.ACCEPTED and agent_id in (m.from_id, m.to_id)]
