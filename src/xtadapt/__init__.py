"""Toolkit for co-evolving Xtext grammars with their metamodels.

Learns concrete-syntax adaptations from a prior grammar pair, replays them on
a regenerated grammar, and evaluates any candidate adaptation with rule-level
consistency, similarity and conformance metrics.
"""

from .conformance import (
    DEFAULT_KNOWN_TERMINALS,
    ConformanceFinding,
    FindingKind,
    check_conformance,
)
from .evaluate import (
    AdaptationType,
    EvaluationReport,
    RuleComparison,
    RuleStatus,
    evaluate,
)
from .extract import ExtractionResult, extract_config
from .llm import (
    AdaptationSession,
    HttpBackend,
    MockBackend,
    Outcome,
    extract_grammar_from_reply,
    run_adaptation,
)
from .model import (
    ActionAnnotation,
    Alternatives,
    Assignment,
    Cardinality,
    CrossReference,
    Expression,
    Grammar,
    Group,
    Keyword,
    ParserRule,
    RuleCall,
    TerminalDecl,
)
from .parsing import (
    ParseDiagnostic,
    SourceSpan,
    parse_grammar,
    print_grammar,
)
from .transform import (
    ApplyReport,
    OpKind,
    Scope,
    ScopeKind,
    TransformOp,
    TransformationConfig,
    apply_config,
    attribute_scope,
    config_from_json,
    config_to_json,
    grammar_scope,
    rule_scope,
)

__all__ = [
    "ActionAnnotation",
    "AdaptationSession",
    "AdaptationType",
    "Alternatives",
    "ApplyReport",
    "Assignment",
    "Cardinality",
    "ConformanceFinding",
    "CrossReference",
    "DEFAULT_KNOWN_TERMINALS",
    "EvaluationReport",
    "Expression",
    "ExtractionResult",
    "FindingKind",
    "Grammar",
    "Group",
    "HttpBackend",
    "Keyword",
    "MockBackend",
    "OpKind",
    "Outcome",
    "ParseDiagnostic",
    "ParserRule",
    "RuleCall",
    "RuleComparison",
    "RuleStatus",
    "Scope",
    "ScopeKind",
    "SourceSpan",
    "TerminalDecl",
    "TransformOp",
    "TransformationConfig",
    "apply_config",
    "attribute_scope",
    "check_conformance",
    "config_from_json",
    "config_to_json",
    "evaluate",
    "extract_config",
    "extract_grammar_from_reply",
    "grammar_scope",
    "parse_grammar",
    "print_grammar",
    "rule_scope",
    "run_adaptation",
]
