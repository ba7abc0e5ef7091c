"""Domain types shared by every pipeline stage.

All values are immutable after construction and validate their own
invariants, so a constructed object is always safe to share across
concurrent workers. The rules that span records (fact ids run F0, F1, …,
each omission names a known fact once and each subcluster member a known
fact) belong to the reply parsers, which refuse a reply that breaks one.
:func:`validate_encounter_bundle` only lists the non-fatal oddities of an
encounter's clusterings.

Every value type in the package derives from :class:`Record`, one
immutable base that reads each subclass's fields from its annotations into
a field table, ``_layout``, and supplies the constructor, equality, hash,
repr and frozen attribute methods that ``@dataclass(frozen=True)`` would
generate. Generating them means running ``exec`` on six methods per class
at import, and even ``dataclasses`` itself, with the ``inspect``, ``ast``
and ``dis`` it loads, is a quarter of the package's import time, which
every command pays first. A field takes a plain default or none;
:func:`replace` copies a record with some fields changed.

Every type that persists as JSON derives from :class:`JsonRecord`, a
``Record`` with one codec driven by its fields, and round-trips through
``to_json_dict`` and ``from_json_dict``; its codec is one named table,
``_Codec``, built on first use from its fields' annotations. It evaluates
them as ``typing.get_type_hints`` would, but not through that function,
which makes and compiles a new ``ForwardRef`` of every annotation of every
base on each call. The same codec loads the run configuration (the types
in ``config``), and every decode refuses keys its type does not know. A
record carries ``schema_version: "1"`` unless its type sets
``versioned = False``. Three types here do, all parts of a larger record
that have never carried a version: ``Turn``, ``Diagnosis`` and
``SubCluster``; so do ``Provenance``, ``Encounter``, the two outcome
markers and ``ManifestEntry`` in ``dataset``, ``CorrelationRow`` in
``baselines``, the four types in ``config`` and the three request types
in ``gateway``.

Construction follows the same field types: an enum field converts its
argument by value and a ``tuple[...]`` field converts any iterable to a
tuple (an ``Optional`` one keeps ``None``), before the record's
:meth:`JsonRecord.check` tests its invariants. On decode a ``float`` field
refuses ``true`` and ``false``, as an ``int`` field does, and a mapping's
values decode by their declared type.

A value computed from the fields, such as a fact's ``combined`` penalty
or a margin's ``ratio``, is a property in its type's ``derived`` table,
never a field, so no check repeats its formula; the codec still writes it.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Mapping
from enum import Enum
from operator import attrgetter, index, methodcaller
from pathlib import Path
from types import CodeType, UnionType
from typing import Any, Callable, ClassVar, ForwardRef, Iterable, NamedTuple, Optional, Sequence
from typing import TypeVar, Union, get_args, get_origin

SCHEMA_VERSION = "1"

# Denominators smaller than this make a completion-margin ratio undefined.
MARGIN_EPSILON = 1e-9

# Section keys of a subjective summary, in display order.
SUMMARY_SECTIONS = (
    "chief_complaint",
    "history_of_present_illness",
    "past_social_history",
)

SECTION_TITLES = {
    "chief_complaint": "CHIEF COMPLAINT",
    "history_of_present_illness": "HISTORY OF PRESENT ILLNESS",
    "past_social_history": "PAST SOCIAL HISTORY",
}


class Speaker(str, Enum):
    DOCTOR = "doctor"
    PATIENT = "patient"
    OTHER = "other"


class SourceTag(str, Enum):
    ORIGINAL = "original"
    TRUNCATED = "truncated"


class ContentCategory(str, Enum):
    MEDICAL = "medical"
    CARE_ACCESS_OR_SDOH = "care_access_or_sdoh"
    NON_MEDICAL = "non_medical"


class Importance(str, Enum):
    CRITICAL = "critical"
    IMPORTANT = "important"
    OTHER = "other"


class Likelihood(str, Enum):
    PROBABLE = "probable"
    POSSIBLE = "possible"
    UNLIKELY = "unlikely"


class DdxSource(str, Enum):
    FROM_CHAT = "from_chat"
    FROM_SUMMARY = "from_summary"


class Polarity(str, Enum):
    SUPPORTING = "supporting"
    REFUTING = "refuting"


class ClusterGroup(str, Enum):
    SYMPTOMS = "symptoms"
    TESTS = "tests"
    TREATMENTS = "treatments"
    SOCIAL_DETERMINANT_OF_HEALTH = "social_determinant_of_health"
    OTHER = "other"


MAX_DDX_ENTRIES = 10


class _Layout(NamedTuple):
    """What a Record subclass's shared methods need of its fields."""

    names: tuple[str, ...]  # the fields, in order
    keys: frozenset[str]  # the same names
    defaults: dict[str, Any]  # the fields with a default
    key: Callable[[Any], tuple]  # the tuple of the fields' values


class Record:
    """Base of every immutable value type in the package.

    A subclass declares annotated fields as a dataclass does, and its field
    table, ``_layout``, lists them in order: the fields of its bases first,
    then its own, leaving out ``ClassVar`` annotations. A field's default is
    the class attribute of its name, and it takes a plain default or none;
    a record is immutable, so a record default is safe to share, while an
    unhashable default or a ``dataclasses.field`` is refused. The methods
    that ``dataclass(frozen=True)`` would ``exec`` for each class at import
    are written here once.

    The constructor takes the fields by position or by name, fills
    defaults and calls ``__post_init__``. Records compare and hash by the
    tuple of their fields, and assigning or deleting an attribute raises
    :class:`FrozenInstanceError`; a ``__post_init__`` that must normalize a
    field uses ``object.__setattr__``.
    """

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # A base's fields first; a field declared again keeps its place.
        names = tuple(
            dict.fromkeys(
                name
                for klass in reversed(cls.__mro__)
                for name, hint in vars(klass).get("__annotations__", {}).items()
                if not _is_class_var(hint)
            )
        )
        defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
        # A dataclasses.Field exists only once dataclasses is loaded, so the
        # check needs no import of its own.
        field_spec = getattr(sys.modules.get("dataclasses"), "Field", ())
        for name, default in defaults.items():
            if isinstance(default, field_spec) or default.__class__.__hash__ is None:
                raise TypeError(f"{cls.__qualname__}.{name}: Record fields take plain defaults")
        cls._layout = _Layout(
            names,
            frozenset(names),
            defaults,
            attrgetter(*names) if len(names) > 1 else _tuple_getter(names),
        )

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        layout = self._layout
        if not kwargs and len(args) == len(layout.names):
            values = dict(zip(layout.names, args))
        else:
            # By name, perhaps with plain defaults; anything else goes to _bind.
            values = kwargs if len(kwargs) == len(layout.names) else {**layout.defaults, **kwargs}
            if args or len(values) != len(layout.names) or not kwargs.keys() <= layout.keys:
                values = _bind(type(self), args, kwargs)
        # The fields become the instance dict in one write, not one call per
        # field. Updating self.__dict__ instead would make CPython build a
        # shared-key dict, on which every later attribute read is slower.
        _set(self, "__dict__", values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._layout.key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._layout.key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._layout.names)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


_set = object.__setattr__
_R = TypeVar("_R", bound=Record)


def replace(record: _R, **changes: Any) -> _R:
    """A copy of ``record`` with ``changes`` to its fields, built by its
    constructor, so its conversions and checks run again."""
    values = {name: getattr(record, name) for name in record._layout.names}
    return type(record)(**{**values, **changes})


def _is_class_var(hint: Any) -> bool:
    # Under postponed evaluation every annotation is a string.
    if isinstance(hint, str):
        return hint.partition("[")[0].strip() in ("ClassVar", "typing.ClassVar")
    return hint is ClassVar or get_origin(hint) is ClassVar


def _tuple_getter(names: tuple[str, ...]) -> Callable[[Any], tuple]:
    # attrgetter returns a bare value for one name and takes no empty list.
    return lambda record: tuple([getattr(record, name) for name in names])


def _bind(cls: type[Record], args: tuple, kwargs: dict[str, Any]) -> dict[str, Any]:
    """The constructor's fields from ``args`` and ``kwargs``, with defaults
    filled; a TypeError like a function call's for an argument too many,
    unknown, given twice or missing."""
    layout = cls._layout
    given = dict(zip(layout.names, args))
    if len(args) > len(layout.names):
        raise TypeError(
            f"{cls.__qualname__}() takes {len(layout.names)} positional arguments "
            f"but {len(args)} were given"
        )
    if not kwargs.keys() <= layout.keys:
        unknown = sorted(kwargs.keys() - layout.keys)
        raise TypeError(f"{cls.__qualname__}() got unexpected keyword arguments {unknown}")
    if not given.keys().isdisjoint(kwargs):
        twice = sorted(given.keys() & kwargs.keys())
        raise TypeError(f"{cls.__qualname__}() got multiple values for arguments {twice}")
    values = {**layout.defaults, **given, **kwargs}
    if len(values) < len(layout.names):
        missing = [name for name in layout.names if name not in values]
        raise TypeError(f"{cls.__qualname__}() missing required arguments {missing}")
    return values


class JsonRecord(Record):
    """Base of every record that persists as a JSON object.

    The codec follows the record's fields: enums encode by value, tuples
    as lists, paths as strings, nested records and NamedTuples as objects,
    and every other value passes through. A versioned type also writes
    ``schema_version`` and checks it on decode. On decode a missing key
    takes the field's default, an integer field takes only an integer, a
    float field anything but a bool, a string field only a string and a
    mapping only values of its value type, and an unknown key, a missing
    required key or a value of the wrong type is a ValueError that names
    the type, prefixed by the enclosing record types when it is nested.
    So is a value the constructor refuses.

    Each name in ``derived`` is a property computed from the fields. The
    codec writes it as a key, typed by the property's return annotation;
    on decode the key is required and must equal the value computed from
    the decoded record.

    The constructor converts each enum field's argument to the enum and
    each ``tuple[...]`` field's to a tuple, leaving ``None`` in an
    ``Optional`` one, and then calls :meth:`check`.
    """

    versioned = True
    derived: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        for name, kept in _codec(type(self)).coercions:
            value = getattr(self, name)
            if value.__class__ not in kept:
                object.__setattr__(self, name, kept[0](value))
        self.check()

    def check(self) -> None:
        """Refuse, with a ValueError, a record that breaks an invariant of
        its type; a type may also normalize its fields here."""

    def to_json_dict(self) -> dict[str, Any]:
        return _encode(self, _codec(type(self)))

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> Any:
        return _decode(cls, _codec(cls), data)


# Turns a value into its JSON form, or back; None passes it through.
_Coder = Optional[Callable[[Any], Any]]
# The classes a constructor argument may already have, the first of which
# converts any other value. None: the constructor converts nothing.
_Coercion = Optional[tuple[type, ...]]


class _Codec(NamedTuple):
    """How one record type is written to JSON and read back."""

    versioned: bool
    encoders: tuple[tuple[str, _Coder], ...]  # every key written: fields, then derived
    decoders: tuple[tuple[str, _Coder, bool], ...]  # each field, and whether it is required
    derived: tuple[tuple[str, _Coder], ...]  # each derived key and its decoder
    allowed: frozenset[str]  # the keys a decode accepts
    coercions: tuple[tuple[str, tuple[type, ...]], ...]  # the fields the constructor converts


@functools.cache
def _codec(cls: type) -> _Codec:
    if hasattr(cls, "_fields"):  # a NamedTuple
        required = {name: name not in cls._field_defaults for name in cls._fields}
    else:
        required = {name: name not in cls._layout.defaults for name in cls._layout.names}
    coders = {name: _coders(hint) for name, hint in _field_types(cls, required).items()}
    derived = {
        name: _coders(_return_type(getattr(cls, name).fget)) for name in getattr(cls, "derived", ())
    }
    versioned = getattr(cls, "versioned", False)
    return _Codec(
        versioned,
        encoders=tuple((name, encode) for name, (encode, _, _) in {**coders, **derived}.items()),
        decoders=tuple((name, decode, required[name]) for name, (_, decode, _) in coders.items()),
        derived=tuple((name, decode) for name, (_, decode, _) in derived.items()),
        allowed=frozenset([*coders, *derived, *(["schema_version"] if versioned else [])]),
        coercions=tuple((name, kept) for name, (_, _, kept) in coders.items() if kept),
    )


@functools.cache
def _compiled(annotation: str) -> CodeType:
    return compile(annotation, "<annotation>", "eval")


def _field_types(cls: type, names: Iterable[str]) -> dict[str, Any]:
    """The type of each field in ``names``, as ``typing.get_type_hints(cls)``
    gives it, without a new ForwardRef for every annotation of every base.

    A field's annotation is the one of the first class in the MRO that
    annotates it, evaluated as get_type_hints evaluates it: a string with
    that class's module as locals and a copy of the class's attributes as
    globals, so the module shadows the class; a ForwardRef, which a
    NamedTuple makes of each string, in its module alone.
    """
    types = {}
    for name in names:
        base = next(base for base in cls.__mro__ if name in vars(base).get("__annotations__", ()))
        annotation = vars(base)["__annotations__"][name]
        module = vars(sys.modules[base.__module__])
        if isinstance(annotation, ForwardRef):
            annotation = eval(_compiled(annotation.__forward_arg__), module)
        elif isinstance(annotation, str):
            annotation = eval(_compiled(annotation), dict(vars(base)), module)
        types[name] = annotation
    return types


def _return_type(function: Callable[..., Any]) -> Any:
    """The return type of ``function``, as ``typing.get_type_hints`` gives
    it: a string evaluates in the function's globals."""
    annotation = function.__annotations__["return"]
    if isinstance(annotation, str):
        return eval(_compiled(annotation), function.__globals__)
    return annotation


def _coders(hint: Any) -> tuple[_Coder, _Coder, _Coercion]:
    """The encoder, the decoder and the constructor's coercion for values
    of one field type."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union or origin is UnionType:
        (inner,) = [arg for arg in args if arg is not type(None)]
        encode, decode, kept = _coders(inner)
        return (
            encode and (lambda value: None if value is None else encode(value)),
            decode and (lambda value: None if value is None else decode(value)),
            kept and (*kept, type(None)),
        )
    if origin is tuple:
        encode, decode, _ = _coders(args[0])
        return (
            list if encode is None else lambda value: [encode(item) for item in value],
            tuple if decode is None else lambda value: tuple([decode(item) for item in value]),
            (tuple,),
        )
    if origin is Mapping or origin is dict:
        decode = _coders(args[1])[1]
        return dict, lambda value: {key: decode(item) for key, item in dict(value).items()}, None
    if hint is int:
        return None, _decode_int, None
    if hint is float:
        return None, _decode_float, None
    if hint is str:
        return None, _decode_str, None
    if hint is Path:
        return str, Path, None
    if issubclass(hint, Enum):
        return attrgetter("value"), hint, (hint,)
    if issubclass(hint, JsonRecord):
        return methodcaller("to_json_dict"), lambda value: hint.from_json_dict(value), None
    if issubclass(hint, tuple) and hasattr(hint, "_fields"):
        return (
            lambda value: _encode(value, _codec(hint)),
            lambda value: _decode(hint, _codec(hint), value),
            None,
        )
    raise TypeError(f"no JSON codec for field type {hint!r}")


def _decode_int(value: Any) -> int:
    if isinstance(value, bool):  # an int subclass, so index() takes it
        raise TypeError("expected an integer, got bool")
    return index(value)


def _decode_float(value: Any) -> Any:
    # Other values pass: the config converts YAML's 1e-9, read as a str.
    if isinstance(value, bool):
        raise TypeError("expected a number, got bool")
    return value


def _decode_str(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    if not value.isascii():
        value.encode("utf-8")  # UnicodeEncodeError on a lone surrogate
    return value


def _encode(obj: Any, codec: _Codec) -> dict[str, Any]:
    out: dict[str, Any] = {"schema_version": SCHEMA_VERSION} if codec.versioned else {}
    for name, encode in codec.encoders:
        value = getattr(obj, name)
        out[name] = value if encode is None else encode(value)
    return out


def _decode(cls: type, codec: _Codec, data: Mapping[str, Any]) -> Any:
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__}: expected a JSON object, got {type(data).__name__}")
    if not data.keys() <= codec.allowed:
        raise ValueError(f"{cls.__name__}: unknown keys {sorted(data.keys() - codec.allowed)}")
    if codec.versioned and data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{cls.__name__}: unsupported schema_version {data.get('schema_version')!r} "
            f"(expected {SCHEMA_VERSION!r})"
        )
    values = {}
    for name, decode, required in codec.decoders:
        if name in data:
            try:
                values[name] = data[name] if decode is None else decode(data[name])
            except (TypeError, ValueError) as exc:
                raise _key_error(cls, name, exc) from exc
        elif required:
            raise ValueError(f"{cls.__name__}: missing required key {name!r}")
    try:
        record = cls(**values)
    except (TypeError, ValueError, AttributeError) as exc:
        # A value that the record's check refuses, a number where it calls
        # a str method, or a value the constructor cannot convert.
        raise ValueError(f"{cls.__name__}: {exc}") from exc
    for name, decode in codec.derived:
        if name not in data:
            raise ValueError(f"{cls.__name__}: missing required key {name!r}")
        try:
            stored = data[name] if decode is None else decode(data[name])
        except (TypeError, ValueError) as exc:
            raise _key_error(cls, name, exc) from exc
        if stored != (expected := getattr(record, name)):
            raise ValueError(
                f"{cls.__name__}: {name} {stored!r} is not the {expected!r} "
                "derived from the record"
            )
    return record


def _key_error(cls: type, name: str, exc: Exception) -> ValueError:
    """The error for the value of key ``name`` that its decoder refused."""
    if isinstance(exc, UnicodeEncodeError):
        # Such as JSON's escape of a lone surrogate: no artifact could hold it.
        return ValueError(f"{cls.__name__}: {name} is not valid UTF-8: {exc}")
    # A value of the wrong JSON type, or a nested record's error, which
    # then names each type on the way down.
    return ValueError(f"{cls.__name__}: {exc}")


def parse_fact_id(raw: str) -> str:
    """Normalize a fact identifier like ``" F14: "`` to ``"F14"``.

    Accepts surrounding whitespace and a trailing colon; anything else is
    a ValueError.
    """
    cleaned = raw.strip()
    if cleaned.endswith(":"):
        cleaned = cleaned[:-1].rstrip()
    digits = cleaned[1:]
    if len(cleaned) < 2 or cleaned[0] != "F" or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"malformed fact id {raw!r}")
    return "F" + str(int(digits))


def fact_id_index(fact_id: str) -> int:
    return int(parse_fact_id(fact_id)[1:])


def _check_reply_line(owner: str, text: str, refused: tuple[str, ...] = ("```",)) -> None:
    """Refuse text that one reply line cannot carry back intact: surrounding
    whitespace, a line break (any ``str.splitlines`` boundary) or ``refused``."""
    if text != text.strip() or len(text.splitlines()) > 1 or any(r in text for r in refused):
        raise ValueError(f"{owner} {text!r} cannot be carried on one reply line")


class Turn(JsonRecord):
    versioned = False

    index: int
    speaker: Speaker
    text: str

    def check(self) -> None:
        if self.index < 0:
            raise ValueError(f"turn index must be non-negative, got {self.index}")
        if not self.text.strip():
            raise ValueError(f"turn {self.index} has empty text")


class Dialogue(JsonRecord):
    """A speaker-tagged patient-provider conversation.

    Invariants: turns non-empty, indices contiguous from 0, every turn
    has a valid speaker and non-empty text.
    """

    encounter_id: str
    turns: tuple[Turn, ...]
    source_tag: SourceTag = SourceTag.ORIGINAL

    def check(self) -> None:
        if not self.encounter_id:
            raise ValueError("encounter_id must be non-empty")
        if not self.turns:
            raise ValueError(f"dialogue {self.encounter_id}: no turns")
        for position, turn in enumerate(self.turns):
            if turn.index != position:
                raise ValueError(
                    f"dialogue {self.encounter_id}: turn at position {position} "
                    f"has index {turn.index} (indices must be contiguous from 0)"
                )

    def text(self) -> str:
        """Render as ``[speaker] text`` lines, one turn per line."""
        return "\n".join(f"[{t.speaker.value}] {t.text}" for t in self.turns)

    def numbered_text(self) -> str:
        """Render with leading turn numbers, for prompts that cite turns."""
        return "\n".join(f"{t.index} [{t.speaker.value}] {t.text}" for t in self.turns)

    def prefix(self, last_turn_index: int) -> "Dialogue":
        """New dialogue keeping turns 0..last_turn_index inclusive."""
        if not 0 <= last_turn_index < len(self.turns):
            raise ValueError(
                f"dialogue {self.encounter_id}: turn index {last_turn_index} out of range "
                f"0..{len(self.turns) - 1}"
            )
        return replace(
            self, turns=self.turns[: last_turn_index + 1], source_tag=SourceTag.TRUNCATED
        )


class Summary(JsonRecord):
    """A subjective note split into its three sections.

    Every section key is present, filled with "" when absent. Empty
    sections are legal, but at least one section must be non-empty.
    """

    encounter_id: str
    sections: Mapping[str, str]
    generator_tag: str = ""

    def check(self) -> None:
        if not self.encounter_id:
            raise ValueError("encounter_id must be non-empty")
        normalized = dict(self.sections)
        unknown = set(normalized) - set(SUMMARY_SECTIONS)
        if unknown:
            raise ValueError(f"summary {self.encounter_id}: unknown sections {sorted(unknown)}")
        for name in SUMMARY_SECTIONS:
            normalized.setdefault(name, "")
        object.__setattr__(self, "sections", normalized)
        if not any(text.strip() for text in normalized.values()):
            raise ValueError(f"summary {self.encounter_id}: every section is empty")

    def text(self) -> str:
        """Render with section titles, skipping empty sections."""
        parts = []
        for name in SUMMARY_SECTIONS:
            body = self.sections[name].strip()
            if body:
                parts.append(f"{SECTION_TITLES[name]}:\n{body}")
        return "\n\n".join(parts)


class Fact(JsonRecord):
    """An atomic statement extracted from the dialogue.

    ``importance`` stays unset until the categorization stage has run;
    scoring refuses facts with unset importance.
    """

    fact_id: str
    text: str
    content_category: ContentCategory
    importance: Optional[Importance] = None

    def check(self) -> None:
        object.__setattr__(self, "fact_id", parse_fact_id(self.fact_id))
        if not self.text.strip():
            raise ValueError(f"fact {self.fact_id}: empty text")
        _check_reply_line(f"fact {self.fact_id}: text", self.text)

    def with_importance(self, importance: Importance) -> "Fact":
        return replace(self, importance=importance)


class Diagnosis(JsonRecord):
    versioned = False

    rank: int
    name: str
    likelihood: Likelihood
    explanation: str = ""

    def check(self) -> None:
        if self.rank < 1:
            raise ValueError(f"diagnosis rank must be positive, got {self.rank}")
        if not self.name.strip():
            raise ValueError("diagnosis name must be non-empty")
        for name in ("name", "explanation"):
            _check_reply_line(f"diagnosis {self.rank}: {name}", getattr(self, name), ("```", "|"))


class DifferentialDiagnosis(JsonRecord):
    """Ranked candidate conditions, at most 10, ranked 1, 2, … in order,
    no two names the same under ``str.lower``."""

    encounter_id: str
    source: DdxSource
    entries: tuple[Diagnosis, ...]

    def check(self) -> None:
        if not self.encounter_id:
            raise ValueError("encounter_id must be non-empty")
        if not self.entries:
            raise ValueError(f"ddx {self.encounter_id}: no entries")
        if len(self.entries) > MAX_DDX_ENTRIES:
            raise ValueError(
                f"ddx {self.encounter_id}: {len(self.entries)} entries exceeds the "
                f"maximum of {MAX_DDX_ENTRIES}"
            )
        names = set()
        for position, entry in enumerate(self.entries, start=1):
            if entry.rank != position:
                raise ValueError(
                    f"ddx {self.encounter_id}: ranks must start at 1 and increase by 1; "
                    f"entry {position} has rank {entry.rank}"
                )
            if entry.name.lower() in names:
                raise ValueError(
                    f"ddx {self.encounter_id}: condition {entry.name!r} appears more than once"
                )
            names.add(entry.name.lower())

    def top(self) -> Diagnosis:
        return self.entries[0]

    def top_non_probable(self) -> Optional[Diagnosis]:
        """First entry in rank order whose likelihood is not probable."""
        for entry in self.entries:
            if entry.likelihood != Likelihood.PROBABLE:
                return entry
        return None


class SubCluster(JsonRecord):
    """Facts that point at the same pathophysiological mechanism, each
    listed once: MED-OMIT weights a fact by ``1/size`` of each subcluster
    that holds it."""

    versioned = False

    group: ClusterGroup
    mechanism_label: str
    fact_ids: tuple[str, ...]

    def check(self) -> None:
        if not self.mechanism_label.strip():
            raise ValueError("subcluster mechanism_label must be non-empty")
        _check_reply_line("subcluster mechanism_label", self.mechanism_label, (":", "```"))
        ids = tuple(parse_fact_id(fid) for fid in self.fact_ids)
        object.__setattr__(self, "fact_ids", ids)
        if not ids:
            raise ValueError(f"subcluster {self.mechanism_label!r}: no fact ids")
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        if dupes:
            raise ValueError(f"fact ids {dupes} are listed more than once")

    @property
    def size(self) -> int:
        return len(self.fact_ids)


class EvidenceClustering(JsonRecord):
    """All subclusters of one polarity for one diagnosis."""

    diagnosis_name: str
    polarity: Polarity
    subclusters: tuple[SubCluster, ...]

    def check(self) -> None:
        if not self.diagnosis_name.strip():
            raise ValueError("clustering diagnosis_name must be non-empty")


class Omission(JsonRecord):
    """A fact wholly or partially missing from the summary."""

    fact_id: str
    explanation: str

    def check(self) -> None:
        object.__setattr__(self, "fact_id", parse_fact_id(self.fact_id))
        if not self.explanation.strip():
            raise ValueError(f"omission {self.fact_id}: empty explanation")
        _check_reply_line(f"omission {self.fact_id}: explanation", self.explanation)


IMPORTANCE_WEIGHTS = {
    Importance.CRITICAL: 1.0,
    Importance.IMPORTANT: 0.5,
    Importance.OTHER: 0.1,
}

_VALID_IMPORTANCE_WEIGHTS = frozenset(IMPORTANCE_WEIGHTS.values())


class FactScore(JsonRecord):
    """Per-fact penalty: max of the importance weight and every 1/|S|."""

    fact_id: str
    importance_weight: float
    uniqueness_weights: tuple[float, ...]

    @property
    def combined(self) -> float:
        return max((self.importance_weight, *self.uniqueness_weights))

    derived = ("combined",)

    def check(self) -> None:
        object.__setattr__(self, "fact_id", parse_fact_id(self.fact_id))
        if self.importance_weight not in _VALID_IMPORTANCE_WEIGHTS:
            raise ValueError(
                f"fact {self.fact_id}: importance weight {self.importance_weight} is not one of "
                f"{sorted(_VALID_IMPORTANCE_WEIGHTS)}"
            )
        for weight in self.uniqueness_weights:
            if not 0.0 < weight <= 1.0:
                raise ValueError(
                    f"fact {self.fact_id}: uniqueness weight {weight} outside (0, 1]"
                )


class CompletionMargin(JsonRecord):
    """Top-vs-alternative completion score gaps, chat vs summary.

    ``ratio`` is None (undefined) when the summary-side gap is smaller
    than epsilon; every score must be finite, so the ratio is never NaN.
    """

    l_c0: float
    l_c1: float
    l_s0: float
    l_s1: float
    epsilon: float = MARGIN_EPSILON

    @property
    def ratio(self) -> Optional[float]:
        denominator = self.l_s0 - self.l_s1
        if abs(denominator) < self.epsilon:
            return None
        return (self.l_c0 - self.l_c1) / denominator

    derived = ("ratio",)

    def check(self) -> None:
        for name in ("l_c0", "l_c1", "l_s0", "l_s1"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} is not finite: {value}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


class ScoredOmission(NamedTuple):
    omission: Omission
    score: FactScore


class OmissionReport(JsonRecord):
    """Everything the metric says about one encounter's summary."""

    encounter_id: str
    omissions: tuple[ScoredOmission, ...]
    margin: Optional[CompletionMargin] = None

    @property
    def omission_count(self) -> int:
        return len(self.omissions)

    @property
    def cumulative_weight(self) -> float:
        # fsum is exactly rounded, so the total is independent of ordering.
        return math.fsum([score.combined for _, score in self.omissions])

    derived = ("omission_count", "cumulative_weight")

    def check(self) -> None:
        if not self.encounter_id:
            raise ValueError("encounter_id must be non-empty")
        object.__setattr__(
            self, "omissions", tuple(ScoredOmission(*pair) for pair in self.omissions)
        )
        for omission, score in self.omissions:
            if omission.fact_id != score.fact_id:
                raise ValueError(
                    f"report {self.encounter_id}: omission {omission.fact_id} paired "
                    f"with score for {score.fact_id}"
                )


def validate_encounter_bundle(clusters: Sequence[EvidenceClustering]) -> list[str]:
    """Non-fatal oddities: NONE mechanism labels and facts that both
    support and refute the same diagnosis."""
    warnings = []
    for clustering in clusters:
        for subcluster in clustering.subclusters:
            if subcluster.mechanism_label.strip().upper() == "NONE":
                warnings.append(
                    f"subcluster under {clustering.polarity.value}/"
                    f"{clustering.diagnosis_name}/{subcluster.group.value} has "
                    'mechanism label "NONE"'
                )
    by_diagnosis: dict[str, dict[Polarity, set[str]]] = {}
    for clustering in clusters:
        sides = by_diagnosis.setdefault(clustering.diagnosis_name, {})
        members = sides.setdefault(clustering.polarity, set())
        for subcluster in clustering.subclusters:
            members.update(subcluster.fact_ids)
    for diagnosis_name, sides in sorted(by_diagnosis.items()):
        overlap = sides.get(Polarity.SUPPORTING, set()) & sides.get(Polarity.REFUTING, set())
        for fact_id in sorted(overlap, key=fact_id_index):
            warnings.append(
                f"fact {fact_id} both supports and refutes diagnosis {diagnosis_name}"
            )
    return warnings
