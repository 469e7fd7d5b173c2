"""Streaming driver: edge events, matches, and the engine interface."""

from repro.streaming.events import Event, EventKind, build_event_list
from repro.streaming.match import Match, MatchBlock
from repro.streaming.engine import MatchEngine, EngineStats
from repro.streaming.driver import StreamDriver, StreamResult

__all__ = [
    "Event", "EventKind", "build_event_list",
    "Match", "MatchBlock", "MatchEngine", "EngineStats",
    "StreamDriver", "StreamResult",
]
