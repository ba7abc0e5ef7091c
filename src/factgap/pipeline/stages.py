"""Stage execution: one model call per stage plus a bounded repair loop.

A stage sends its prompt, extracts the last fenced block from the reply
and parses it. On a format violation the model gets exactly
``repair_budget`` follow-ups quoting the violation; if the final attempt
still fails the stage raises StageError carrying the stage name, the
last violation, the failing request fingerprint, and how many calls were
made.

``STAGES`` declares the stages of one encounter as a dependency table:
each row names what it needs, how it runs and which artifact it writes.
The runner schedules the table; ``STAGE_ORDER`` is its row order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

from ..config import RunConfig
from ..datamodel import (
    DdxSource,
    Dialogue,
    DifferentialDiagnosis,
    EvidenceClustering,
    Fact,
    Omission,
    Polarity,
    Summary,
)
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


@dataclass(frozen=True)
class StageOutput:
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


@dataclass(frozen=True)
class StageContext:
    gateway: LlmGateway
    config: RunConfig

    @property
    def metric_model(self) -> str:
        return self.config.models.metric

    @property
    def summary_model(self) -> str:
        return self.config.models.summary

    @property
    def repair_budget(self) -> int:
        return self.config.thresholds.repair_budget

    @property
    def max_tokens(self) -> int:
        return self.config.max_gen_tokens


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
    while attempts <= ctx.repair_budget:
        text = ctx.gateway.generate(current)
        attempts += 1
        try:
            block = parsers.extract_last_fenced_block(text)
            value = parse(block)
        except parsers.ParseError as exc:
            last_error = exc
            if attempts <= ctx.repair_budget:
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


def stage_truncate(ctx: StageContext, dialogue: Dialogue) -> StageOutput:
    request = templates.build_request(
        ctx.metric_model,
        "truncate",
        ctx.max_tokens,
        dialogue_numbered=dialogue.numbered_text(),
    )
    return run_stage(
        ctx,
        "truncate",
        request,
        lambda block: parsers.parse_truncation(block, len(dialogue.turns)),
    )


def stage_summarize(ctx: StageContext, dialogue: Dialogue) -> StageOutput:
    request = templates.build_request(
        ctx.summary_model, "summary", ctx.max_tokens, dialogue=dialogue.text()
    )
    return run_stage(
        ctx,
        "summarize",
        request,
        lambda block: parsers.parse_summary(block, dialogue.encounter_id),
    )


def stage_extract_facts(ctx: StageContext, dialogue: Dialogue) -> StageOutput:
    request = templates.build_request(
        ctx.metric_model, "facts", ctx.max_tokens, dialogue=dialogue.text()
    )
    return run_stage(ctx, "extract_facts", request, parsers.parse_facts)


def _facts_text(facts: Sequence[Fact]) -> str:
    return "\n".join(f"{fact.fact_id}: {fact.text}" for fact in facts)


def stage_ddx(
    ctx: StageContext, encounter_id: str, context_text: str, source: DdxSource
) -> StageOutput:
    stage = "ddx_chat" if source is DdxSource.FROM_CHAT else "ddx_summary"
    request = templates.build_request(
        ctx.metric_model, "ddx", ctx.max_tokens, context=context_text
    )
    return run_stage(
        ctx,
        stage,
        request,
        lambda block: parsers.parse_ddx(block, encounter_id, source),
    )


def stage_detect_omissions(
    ctx: StageContext, facts: Sequence[Fact], summary: Summary
) -> StageOutput:
    request = templates.build_request(
        ctx.metric_model,
        "omissions",
        ctx.max_tokens,
        facts=_facts_text(facts),
        summary=summary.text(),
    )
    known = [fact.fact_id for fact in facts]
    return run_stage(
        ctx,
        "detect_omissions",
        request,
        lambda block: parsers.parse_omissions(block, known),
    )


def stage_categorize(ctx: StageContext, facts: Sequence[Fact]) -> StageOutput:
    request = templates.build_request(
        ctx.metric_model, "categorize", ctx.max_tokens, facts=_facts_text(facts)
    )
    return run_stage(
        ctx,
        "categorize",
        request,
        lambda block: parsers.parse_categorization(block, facts),
    )


_POLARITY_WORDS = {Polarity.SUPPORTING: "supports", Polarity.REFUTING: "refutes"}


def stage_cluster(
    ctx: StageContext,
    ddx: DifferentialDiagnosis,
    facts: Sequence[Fact],
    polarity: Polarity,
) -> StageOutput:
    stage = "cluster_supporting" if polarity is Polarity.SUPPORTING else "cluster_refuting"
    names = [entry.name for entry in ddx.entries]
    request = templates.build_request(
        ctx.metric_model,
        "cluster",
        ctx.max_tokens,
        polarity_word=_POLARITY_WORDS[polarity],
        diagnoses="\n".join(f"- {name}" for name in names),
        facts=_facts_text(facts),
    )
    known = [fact.fact_id for fact in facts]
    return run_stage(
        ctx,
        stage,
        request,
        lambda block: parsers.parse_clusters(block, names, known, polarity),
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


@dataclass(frozen=True)
class Stage:
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


def _truncate(s: StageInputs) -> StageOutput:
    out = stage_truncate(s.ctx, s.dialogue)
    out = replace(out, value=s.dialogue.prefix(out.value))
    minimum = s.ctx.config.thresholds.min_truncated_turns
    if len(out.value.turns) < minimum:
        raise DialogueTooShort(out, minimum)
    return out


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
        ).score

    return run


def _encoded(_: str, value: Any) -> dict:
    return value.to_json_dict()


def _listed(key: str) -> Callable[[str, Any], dict]:
    return lambda encounter_id, items: {
        "encounter_id": encounter_id,
        key: [item.to_json_dict() for item in items],
    }


def _cluster_stage(polarity: Polarity) -> Stage:
    return Stage(
        f"cluster_{polarity.value}",
        # The cluster prompt renders only fact ids and text, so the raw
        # facts serve as well as the categorized ones.
        ("extract_facts", "ddx_chat"),
        lambda s: stage_cluster(s.ctx, s["ddx_chat"], s["extract_facts"], polarity),
        f"clusters_{polarity.value}.json",
        lambda encounter_id, clusters: {
            "encounter_id": encounter_id,
            "polarity": polarity.value,
            "clusters": [c.to_json_dict() for c in clusters],
        },
    )


MARGIN_SCORES = ("score_c0", "score_c1", "score_s0", "score_s1")

STAGES: tuple[Stage, ...] = (
    Stage("truncate", (), _truncate, "truncated.json", _encoded),
    Stage(
        "summarize",
        ("truncate",),
        lambda s: stage_summarize(s.ctx, s["truncate"]),
        "summary.json",
        _encoded,
    ),
    Stage("extract_facts", ("truncate",), lambda s: stage_extract_facts(s.ctx, s["truncate"])),
    Stage(
        "ddx_chat",
        ("truncate",),
        lambda s: stage_ddx(
            s.ctx, s.dialogue.encounter_id, s["truncate"].text(), DdxSource.FROM_CHAT
        ),
        "ddx_chat.json",
        _encoded,
    ),
    Stage(
        "detect_omissions",
        ("extract_facts", "summarize"),
        lambda s: stage_detect_omissions(s.ctx, s["extract_facts"], s["summarize"]),
        "omissions.json",
        _listed("omissions"),
    ),
    Stage(
        "categorize",
        ("extract_facts",),
        lambda s: stage_categorize(s.ctx, s["extract_facts"]),
        "facts.json",
        _listed("facts"),
    ),
    _cluster_stage(Polarity.SUPPORTING),
    _cluster_stage(Polarity.REFUTING),
    # From here on the rows exist only when a margin model is configured.
    Stage(
        "ddx_summary",
        ("summarize",),
        lambda s: stage_ddx(
            s.ctx, s.dialogue.encounter_id, s["summarize"].text(), DdxSource.FROM_SUMMARY
        ),
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
