"""Pattern-based event extraction and scenario mining over a typed graph."""

from .definitions import DefinitionError, ThingDefinition, parse_definitions
from .graph import (
    Edge,
    GraphError,
    GraphStore,
    SnapshotError,
    TimeSpec,
)
from .matching import (
    Binding,
    CorpusError,
    Document,
    Match,
    check_type,
    extract_events,
    match_pattern,
    read_corpus,
    time_to_tick,
)
from .mining import (
    Fork,
    MiningConfig,
    MiningReport,
    MiningStageError,
    ScenarioModel,
    Trigger,
    run_pipeline,
)
from .patterns import (
    UNTYPED,
    AndSet,
    AnySet,
    Literal,
    PatternNode,
    PatternSyntaxError,
    SeqSet,
    TypeRef,
    Variable,
    list_variables,
    parse_pattern,
    render_pattern,
)
from .queries import WeightedSet
from .tokens import Token, tokenize

__version__ = "0.1.0"

__all__ = [
    "AndSet",
    "AnySet",
    "Binding",
    "CorpusError",
    "DefinitionError",
    "Document",
    "Edge",
    "Fork",
    "GraphError",
    "GraphStore",
    "Literal",
    "Match",
    "MiningConfig",
    "MiningReport",
    "MiningStageError",
    "PatternNode",
    "PatternSyntaxError",
    "ScenarioModel",
    "SeqSet",
    "SnapshotError",
    "ThingDefinition",
    "TimeSpec",
    "Token",
    "Trigger",
    "TypeRef",
    "UNTYPED",
    "Variable",
    "WeightedSet",
    "check_type",
    "extract_events",
    "list_variables",
    "match_pattern",
    "parse_definitions",
    "parse_pattern",
    "read_corpus",
    "render_pattern",
    "run_pipeline",
    "time_to_tick",
    "tokenize",
]
