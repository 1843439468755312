"""bab: a deterministic turn-based tank-battle arena and LLM benchmark harness."""

from .agents import AgentSpec, ChatExchange, make_backend, parse_model_name
from .coop import route_coop
from .engine import apply_move, apply_shoot, check_termination, npc_policy, step_turn
from .metrics import (
    aggregate,
    format_accuracy,
    forward_distance,
    goal_completion,
    move_accuracy,
)
from .parsing import ParsedAction, format_reply, parse_response
from .prompts import render_observation, render_turn
from .replay import metrics_from_log, read_log, replay_verify
from .runner import RunConfig, run_benchmark, run_episode
from .stages import STAGE_SETTINGS, StageOverrides, load_stage
from .types import Orientation, Pos, StageConfig, WorldState

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "ChatExchange",
    "Orientation",
    "ParsedAction",
    "Pos",
    "RunConfig",
    "STAGE_SETTINGS",
    "StageConfig",
    "StageOverrides",
    "WorldState",
    "aggregate",
    "apply_move",
    "apply_shoot",
    "check_termination",
    "format_accuracy",
    "format_reply",
    "forward_distance",
    "goal_completion",
    "load_stage",
    "make_backend",
    "metrics_from_log",
    "move_accuracy",
    "npc_policy",
    "parse_model_name",
    "parse_response",
    "read_log",
    "render_observation",
    "render_turn",
    "replay_verify",
    "route_coop",
    "run_benchmark",
    "run_episode",
    "step_turn",
]
