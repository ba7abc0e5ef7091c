"""Stage execution: one model call per stage plus a bounded repair loop.

A stage sends its prompt, extracts the last fenced block from the reply
and parses it, in one loop of at most ``repair_budget + 1`` attempts. A
format violation before the last attempt gets a follow-up quoting it; on
the last, the stage raises StageError carrying the stage name, that
violation, the failing request's fingerprint, and how many calls were
made.

``STAGES`` declares the stages of one encounter as a dependency table:
each row names what it needs, how it runs and which artifact it writes.
A model stage's row is one ``_model_stage`` call, which names the stage
once, with its template, the model role it asks (``config.models.<role>``),
the values its prompt renders and the parser of the reply. Each margin
score is a row of its own, declared in ``MARGIN_SCORES``, that needs both
differentials and plans the margin itself. One builder, ``_listed``,
makes the payload of each list artifact: facts, omissions and clusters.
The runner schedules the table; ``STAGE_ORDER`` is its row order.
"""

import logging
from typing import Any, Callable, Optional, Sequence

from ..config import RunConfig
from ..datamodel import DdxSource, Dialogue, Fact, Polarity, Record, replace
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
    budget = ctx.config.thresholds.repair_budget
    for attempts in range(1, budget + 2):
        text = ctx.gateway.generate(request)
        try:
            value = parse(parsers.extract_last_fenced_block(text))
        except parsers.ParseError as exc:
            if attempts > budget:
                raise StageError(stage, str(exc), request.fingerprint, attempts) from exc
            log.info("stage %s attempt %d rejected: %s", stage, attempts, exc)
            request = request.extended(text, _repair_message(exc))
            continue
        return StageOutput(stage, value, text, request.fingerprint, attempts)


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
    ``artifact``. A failure here is reported under ``label``, if set, and
    else under ``name``.
    """

    name: str
    needs: tuple[str, ...]
    run: Callable[[StageInputs], Any]
    artifact: str = ""
    payload: Optional[Callable[[str, Any], dict]] = None
    label: str = ""


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


# Each margin score row, in completion_margin's argument order: the stage
# whose text is the prompt's context and the MarginPlan diagnosis it scores.
MARGIN_SCORES = {
    "score_c0": ("truncate", "target"),
    "score_c1": ("truncate", "chat_alternative"),
    "score_s0": ("summarize", "target"),
    "score_s1": ("summarize", "summary_alternative"),
}


def _margin_score(context: str, diagnosis: str) -> Callable[[StageInputs], Optional[float]]:
    def run(s: StageInputs) -> Optional[float]:
        plan = margin_plan(s["ddx_chat"], s["ddx_summary"])
        if plan is None:
            return None
        config = s.ctx.config
        return s.ctx.gateway.score_continuation(
            config.models.margin,
            completion_prompt(s[context].text()),
            completion_continuation(getattr(plan, diagnosis)),
            config.aggregation,
        )

    return run


def _encoded(_: str, value: Any) -> dict:
    return value.to_json_dict()


def _listed(key: str, **fields: str) -> Callable[[str, Any], dict]:
    """A list artifact's payload: the encounter id, ``fields``, then ``key``'s items."""
    return lambda encounter_id, items: {
        "encounter_id": encounter_id,
        **fields,
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
        _listed("clusters", polarity=polarity.value),
    )


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
    *(
        Stage(name, ("ddx_chat", "ddx_summary"), _margin_score(*row), label="margin_scores")
        for name, row in MARGIN_SCORES.items()
    ),
)

STAGE_ORDER = tuple(stage.name for stage in STAGES)
_MARGIN_START = STAGE_ORDER.index("ddx_summary")


def encounter_stages(config: RunConfig) -> tuple[Stage, ...]:
    """The rows one encounter runs under this configuration."""
    return STAGES if config.models.margin else STAGES[:_MARGIN_START]
