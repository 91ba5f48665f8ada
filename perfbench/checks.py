"""Output correctness checks; each returns a problem string or ``None``."""

from __future__ import annotations


def contained(repository, engine, raw: str, s: int,
              deweys: list) -> str | None:
    """Every answered node must be a brute-force candidate.

    The oracle (``repro.baselines.bruteforce.brute_candidates``) runs on
    the generated corpus itself, not on the program's parse of its text.
    """
    from repro.baselines.bruteforce import brute_candidates

    query = engine.parse_query(raw, s=s)
    candidates = set(brute_candidates(repository, query))
    stray = [dewey for dewey in deweys if dewey not in candidates]
    if stray:
        return (f"{len(stray)} answer node(s) of {raw!r} (s={s}) are not "
                f"brute-force candidates, e.g. {stray[0]}")
    return None


def parse_dewey(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(".")) if text else ()


def wire_nodes(payload: dict) -> list[dict]:
    """The ``nodes`` of an HTTP payload with Dewey ids parsed."""
    return [{**node, "dewey": parse_dewey(node["dewey"])}
            for node in payload["nodes"]]


def reference_nodes(engine, raw: str, s: int, k: int | None) -> list[dict]:
    """The same request answered in-process on the reference engine."""
    from repro.core.export import node_to_dict

    if k is None:
        response = engine.search(raw, s=s, use_cache=False)
    else:
        response = engine.search_top_k(raw, k, s=s)
    return [{**node_to_dict(node, engine.repository), "dewey": node.dewey}
            for node in response.nodes]
