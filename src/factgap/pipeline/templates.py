"""Prompt assets and request construction.

Templates live as package data and use ``${name}`` placeholders
(string.Template), so braces inside clinical text never collide with the
substitution syntax. Rendering is strict in both directions: a missing
value and an unused value are both errors.
"""

import string
from functools import lru_cache
from importlib import resources

from ..gateway import ChatMessage, GenerationRequest

TEMPLATE_NAMES = (
    "truncate",
    "summary",
    "facts",
    "ddx",
    "omissions",
    "categorize",
    "cluster",
)


@lru_cache(maxsize=None)
def load_template(name: str) -> tuple[string.Template, frozenset[str]]:
    """The named template and the names of its placeholders, read once."""
    if name not in TEMPLATE_NAMES:
        raise ValueError(f"unknown template {name!r} (have {TEMPLATE_NAMES})")
    template = string.Template(
        resources.files("factgap.pipeline")
        .joinpath("prompts", f"{name}.txt")
        .read_text(encoding="utf-8")
    )
    names = set()
    for match in template.pattern.finditer(template.template):
        named = match.group("named") or match.group("braced")
        if named:
            names.add(named)
        elif match.group("invalid") is not None:
            raise ValueError(f"template contains an invalid placeholder near {match.group(0)!r}")
    return template, frozenset(names)


def render(name: str, **values: str) -> str:
    template, expected = load_template(name)
    provided = set(values)
    if expected != provided:
        raise ValueError(
            f"template {name}: placeholder mismatch, "
            f"missing {sorted(expected - provided)}, extra {sorted(provided - expected)}"
        )
    return template.substitute(values)


def build_request(
    model_id: str, template_name: str, max_tokens: int, **values: str
) -> GenerationRequest:
    prompt = render(template_name, **values)
    return GenerationRequest(
        model_id=model_id,
        messages=(ChatMessage(role="user", content=prompt),),
        max_tokens=max_tokens,
    )
