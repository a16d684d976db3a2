"""The Fig. 4 rule language, Table 2 rules, and the selection engine."""

from repro.rules.ast import (Action, ActionKind, CAPACITY_MAX_SIZE, Rule)
from repro.rules.builtin import (BUILTIN_RULES, DEFAULT_CONSTANTS, RuleSpec,
                                 builtin_rules)
from repro.rules.engine import RuleEngine
from repro.rules.evaluator import (EvaluationError, Interval, Tri,
                                   analyze_condition, decide_condition,
                                   point_environment)
from repro.rules.lexer import LexError, tokenize
from repro.rules.parser import ParseError, parse_condition, parse_rule
from repro.rules.suggestions import RuleCategory, Suggestion

__all__ = [
    "Action", "ActionKind", "CAPACITY_MAX_SIZE", "Rule", "BUILTIN_RULES",
    "DEFAULT_CONSTANTS", "RuleSpec", "builtin_rules", "RuleEngine",
    "EvaluationError", "Interval", "Tri", "analyze_condition",
    "decide_condition", "point_environment", "LexError", "tokenize",
    "ParseError", "parse_condition", "parse_rule", "RuleCategory",
    "Suggestion",
]
