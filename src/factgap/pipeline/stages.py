"""Stage execution: one model call per stage plus a bounded repair loop.

A stage sends its prompt, extracts the last fenced block from the reply
and parses it. On a format violation the model gets exactly
``repair_budget`` follow-ups quoting the violation; if the final attempt
still fails the stage raises StageError carrying the stage name, the
last violation, the failing request fingerprint, and how many calls were
made.

``STAGES`` declares the stages of one encounter as a dependency table:
each row names what it needs, how it runs and which artifact it writes.
A model stage's row is one ``_model_stage`` call, which names the stage
once, with its template, the model role it asks (``config.models.<role>``),
the values its prompt renders and the parser of the reply. The runner
schedules the table; ``STAGE_ORDER`` is its row order.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import Any, Callable, Optional, Sequence

from ..config import RunConfig
from ..datamodel import DdxSource, Dialogue, Fact, Polarity, Record
from ..gateway import GenerationRequest, LlmGateway
from ..scoring import completion_continuation, completion_prompt, margin_plan
from . import parsers, templates

log = logging.getLogger(__name__)

class StageError(Exception):
    def __init__(self, stage: str, message: str, fingerprint: str, attempts: int):
        super().__init__(f"stage {stage} failed after {attempts} attempt(s): {message}")
        self.stage = stage
        self.message = message
        self.fingerprint = fingerprint
        self.attempts = attempts


class StageOutput(Record):
    stage: str
    value: Any
    raw_text: str
    fingerprint: str
    attempts: int

    def __post_init__(self) -> None:
        if self.stage not in STAGE_ORDER:
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")


class StageContext(Record):
    gateway: LlmGateway
    config: RunConfig


def _repair_message(error: parsers.ParseError) -> str:
    return (
        f"Your previous reply violated the required format: {error}. "
        "Reply again with exactly one fenced code block in the format the "
        "instructions specify."
    )


def run_stage(
    ctx: StageContext,
    stage: str,
    request: GenerationRequest,
    parse: Callable[[str], Any],
) -> StageOutput:
    attempts = 0
    current = request
    last_error: Optional[parsers.ParseError] = None
    budget = ctx.config.thresholds.repair_budget
    while attempts <= budget:
        text = ctx.gateway.generate(current)
        attempts += 1
        try:
            block = parsers.extract_last_fenced_block(text)
            value = parse(block)
        except parsers.ParseError as exc:
            last_error = exc
            if attempts <= budget:
                log.info("stage %s attempt %d rejected: %s", stage, attempts, exc)
                current = current.extended(text, _repair_message(exc))
            continue
        return StageOutput(
            stage=stage,
            value=value,
            raw_text=text,
            fingerprint=current.fingerprint,
            attempts=attempts,
        )
    assert last_error is not None
    raise StageError(
        stage=stage,
        message=str(last_error),
        fingerprint=current.fingerprint,
        attempts=attempts,
    )


class DialogueTooShort(Exception):
    """The truncated dialogue is below the minimum length; the encounter
    is skipped. Carries the truncation stage's output, whose value is the
    truncated dialogue."""

    def __init__(self, output: StageOutput, minimum: int):
        super().__init__(
            f"truncated dialogue has {len(output.value.turns)} turns, "
            f"below the minimum of {minimum}"
        )
        self.output = output


class StageInputs:
    """What the stages of one encounter read: the context, the dialogue,
    and the value of every stage finished so far."""

    def __init__(self, ctx: StageContext, dialogue: Dialogue):
        self.ctx = ctx
        self.dialogue = dialogue
        self.values: dict[str, Any] = {}

    def __getitem__(self, name: str) -> Any:
        return self.values[name]

    def accept(self, name: str, result: Any) -> None:
        self.values[name] = result.value if isinstance(result, StageOutput) else result


class Stage(Record):
    """One row of the encounter's stage table.

    ``run`` may execute on any thread once every stage in ``needs`` has a
    value; it returns a StageOutput for a model stage and a plain value
    otherwise. ``payload`` turns the value into the JSON body of
    ``artifact``. ``label`` is the stage a failure here is reported under.
    """

    name: str
    needs: tuple[str, ...]
    run: Callable[[StageInputs], Any]
    artifact: str = ""
    payload: Optional[Callable[[str, Any], dict]] = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", self.name)


def _model_stage(
    name: str,
    needs: tuple[str, ...],
    template: str,
    role: str,
    values: Callable[[StageInputs], dict[str, str]],
    parse: Callable[[StageInputs, str], Any],
    artifact: str = "",
    payload: Optional[Callable[[str, Any], dict]] = None,
) -> Stage:
    """The row of model stage ``name``: its run renders ``template`` with
    ``values`` for the model ``config.models.<role>`` and parses the
    reply's last fenced block with ``parse``, repairing through
    run_stage."""

    def run(s: StageInputs) -> StageOutput:
        config = s.ctx.config
        request = templates.build_request(
            getattr(config.models, role), template, config.max_gen_tokens, **values(s)
        )
        return run_stage(s.ctx, name, request, lambda block: parse(s, block))

    return Stage(name, needs, run, artifact, payload)


# Truncation's model call names the last turn to keep; its row in STAGES
# runs it and cuts there.
_ask_cut = _model_stage(
    "truncate",
    (),
    "truncate",
    "metric",
    lambda s: {"dialogue_numbered": s.dialogue.numbered_text()},
    lambda s, block: parsers.parse_truncation(block, len(s.dialogue.turns)),
)


def stage_truncate(ctx: StageContext, dialogue: Dialogue) -> StageOutput:
    return _ask_cut.run(StageInputs(ctx, dialogue))


def _truncate(s: StageInputs) -> StageOutput:
    out = _ask_cut.run(s)
    out = replace(out, value=s.dialogue.prefix(out.value))
    minimum = s.ctx.config.thresholds.min_truncated_turns
    if len(out.value.turns) < minimum:
        raise DialogueTooShort(out, minimum)
    return out


def _facts_text(facts: Sequence[Fact]) -> str:
    return "\n".join(f"{fact.fact_id}: {fact.text}" for fact in facts)


def _fact_ids(facts: Sequence[Fact]) -> list[str]:
    return [fact.fact_id for fact in facts]


def _margin_requests(s: StageInputs) -> Optional[tuple[tuple[str, str], ...]]:
    """The (prefix, diagnosis) of the four margin scores, in the order of
    completion_margin's arguments; None when the margin is undefined."""
    plan = margin_plan(s["ddx_chat"], s["ddx_summary"])
    if plan is None:
        return None
    chat = completion_prompt(s["truncate"].text())
    summary = completion_prompt(s["summarize"].text())
    return (
        (chat, plan.target),
        (chat, plan.chat_alternative),
        (summary, plan.target),
        (summary, plan.summary_alternative),
    )


def _margin_score(index: int) -> Callable[[StageInputs], Optional[float]]:
    def run(s: StageInputs) -> Optional[float]:
        requests = s["margin_plan"]
        if requests is None:
            return None
        prefix, diagnosis = requests[index]
        config = s.ctx.config
        return s.ctx.gateway.score_continuation(
            config.models.margin, prefix, completion_continuation(diagnosis), config.aggregation
        )

    return run


def _encoded(_: str, value: Any) -> dict:
    return value.to_json_dict()


def _listed(key: str) -> Callable[[str, Any], dict]:
    return lambda encounter_id, items: {
        "encounter_id": encounter_id,
        key: [item.to_json_dict() for item in items],
    }


def _diagnoses(s: StageInputs) -> list[str]:
    return [entry.name for entry in s["ddx_chat"].entries]


def _cluster_stage(polarity: Polarity) -> Stage:
    return _model_stage(
        f"cluster_{polarity.value}",
        # The cluster prompt renders only fact ids and text, so the raw
        # facts serve as well as the categorized ones.
        ("extract_facts", "ddx_chat"),
        "cluster",
        "metric",
        lambda s: {
            "polarity_word": "supports" if polarity is Polarity.SUPPORTING else "refutes",
            "diagnoses": "\n".join(f"- {name}" for name in _diagnoses(s)),
            "facts": _facts_text(s["extract_facts"]),
        },
        lambda s, block: parsers.parse_clusters(
            block, _diagnoses(s), _fact_ids(s["extract_facts"]), polarity
        ),
        f"clusters_{polarity.value}.json",
        lambda encounter_id, clusters: {
            "encounter_id": encounter_id,
            "polarity": polarity.value,
            "clusters": [c.to_json_dict() for c in clusters],
        },
    )


MARGIN_SCORES = ("score_c0", "score_c1", "score_s0", "score_s1")

STAGES: tuple[Stage, ...] = (
    replace(_ask_cut, run=_truncate, artifact="truncated.json", payload=_encoded),
    _model_stage(
        "summarize",
        ("truncate",),
        "summary",
        "summary",
        lambda s: {"dialogue": s["truncate"].text()},
        lambda s, block: parsers.parse_summary(block, s.dialogue.encounter_id),
        "summary.json",
        _encoded,
    ),
    _model_stage(
        "extract_facts",
        ("truncate",),
        "facts",
        "metric",
        lambda s: {"dialogue": s["truncate"].text()},
        lambda s, block: parsers.parse_facts(block),
    ),
    _model_stage(
        "ddx_chat",
        ("truncate",),
        "ddx",
        "metric",
        lambda s: {"context": s["truncate"].text()},
        lambda s, block: parsers.parse_ddx(block, s.dialogue.encounter_id, DdxSource.FROM_CHAT),
        "ddx_chat.json",
        _encoded,
    ),
    _model_stage(
        "detect_omissions",
        ("extract_facts", "summarize"),
        "omissions",
        "metric",
        lambda s: {"facts": _facts_text(s["extract_facts"]), "summary": s["summarize"].text()},
        lambda s, block: parsers.parse_omissions(block, _fact_ids(s["extract_facts"])),
        "omissions.json",
        _listed("omissions"),
    ),
    _model_stage(
        "categorize",
        ("extract_facts",),
        "categorize",
        "metric",
        lambda s: {"facts": _facts_text(s["extract_facts"])},
        lambda s, block: parsers.parse_categorization(block, s["extract_facts"]),
        "facts.json",
        _listed("facts"),
    ),
    _cluster_stage(Polarity.SUPPORTING),
    _cluster_stage(Polarity.REFUTING),
    # From here on the rows exist only when a margin model is configured.
    _model_stage(
        "ddx_summary",
        ("summarize",),
        "ddx",
        "metric",
        lambda s: {"context": s["summarize"].text()},
        lambda s, block: parsers.parse_ddx(block, s.dialogue.encounter_id, DdxSource.FROM_SUMMARY),
        "ddx_summary.json",
        _encoded,
    ),
    Stage("margin_plan", ("ddx_chat", "ddx_summary"), _margin_requests, label="margin_scores"),
    *(
        Stage(name, ("margin_plan",), _margin_score(i), label="margin_scores")
        for i, name in enumerate(MARGIN_SCORES)
    ),
)

STAGE_ORDER = tuple(stage.name for stage in STAGES)
_MARGIN_START = STAGE_ORDER.index("ddx_summary")


def encounter_stages(config: RunConfig) -> tuple[Stage, ...]:
    """The rows one encounter runs under this configuration."""
    return STAGES if config.models.margin else STAGES[:_MARGIN_START]
