"""The JSONL event formats, pinned by logs an earlier version wrote.

``format_pins/`` holds the event log of each CI smoke command in
``COMMANDS``, written before every event kind was declared as one
record type.  Today's logs must carry the same event kinds, the same
keys per kind (nested ones included) and the same JSON type per key;
the two profile logs are deterministic and must match byte for byte;
and the saved Query Store must load and re-export byte-identically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Set

import pytest

from repro.__main__ import main
from repro.obs.export import events_to_jsonl
from repro.obs.query_store import QueryStore

PINS = Path(__file__).parent / "format_pins"

JOIN = ("SELECT c_name FROM customer, orders "
        "WHERE c_custkey = o_custkey")

#: pin file → the CLI arguments that write it (``--jsonl`` appended).
COMMANDS = {
    "profile_join": [
        "--scale", "0.001", "--nodes", "4", "profile",
        "SELECT l_returnflag, COUNT(*) AS n FROM lineitem, orders "
        "WHERE l_orderkey = o_orderkey GROUP BY l_returnflag"],
    "profile_shuffle": [
        "--scale", "0.001", "--nodes", "3", "profile",
        "SELECT o_custkey, COUNT(*) AS n FROM orders GROUP BY o_custkey"],
    "why": ["--scale", "0.001", "--nodes", "4", "why", JOIN],
    "why_hint": ["--scale", "0.001", "--nodes", "4", "why", JOIN,
                 "--hint", "customer=shuffle"],
    "requests": ["--scale", "0.001", "--nodes", "4", "requests",
                 "--clients", "2", "--queries", "3"],
    "querystore": ["--scale", "0.001", "--nodes", "2", "querystore",
                   "--clients", "2", "--queries", "4",
                   "--hint", "customer=shuffle", "--factor", "1.2"],
}

#: Logs with no wall-clock field: equal byte for byte.
DETERMINISTIC = ("profile_join", "profile_shuffle")


def _json_type(value: object) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if value is None:
        return "null"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def _collect(value: object, path: str,
             out: Dict[str, Set[str]]) -> None:
    out.setdefault(path, set()).add(_json_type(value))
    if isinstance(value, list):
        for item in value:
            _collect(item, path + "[]", out)
    elif isinstance(value, dict):
        for key, item in value.items():
            node_id = key.lstrip("-").isdigit()
            _collect(item, f"{path}.{'<node>' if node_id else key}", out)


def event_format(text: str) -> Dict[str, Dict[str, Set[str]]]:
    """Per event kind: every key path and the JSON types seen there."""
    formats: Dict[str, Dict[str, Set[str]]] = {}
    for line in text.splitlines():
        event = json.loads(line)
        kind = event.pop("event")
        _collect(event, "", formats.setdefault(kind, {}))
    return formats


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_keeps_the_pinned_format(name, tmp_path, capsys):
    path = tmp_path / f"{name}.jsonl"
    assert main(COMMANDS[name] + ["--jsonl", str(path)]) == 0
    capsys.readouterr()
    pinned = (PINS / f"{name}.jsonl").read_text(encoding="utf-8")
    written = path.read_text(encoding="utf-8")
    assert event_format(written) == event_format(pinned)
    if name in DETERMINISTIC:
        assert written == pinned


def test_pinned_query_store_loads_and_reexports_byte_identically():
    pinned = (PINS / "querystore.jsonl").read_text(encoding="utf-8")
    store = QueryStore()
    assert store.load(str(PINS / "querystore.jsonl")) \
        == len(pinned.splitlines())
    assert events_to_jsonl(store.to_events()) == pinned
