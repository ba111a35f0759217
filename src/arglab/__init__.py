"""Defeasible argumentation with exact-rational probabilistic labellings."""

from .core import (
    ArgLabel,
    Argument,
    ArgumentationGraph,
    DefeasibleTheory,
    Justification,
    Labelling,
    LabelSet,
    Literal,
    Rule,
    close_conflicts,
    in_conflict,
    lit,
    semi_skeptical_justification,
)
from .construct import (
    PreferencePolicy,
    build_arguments,
    build_graph,
    derive_attacks,
    induced_subgraph,
    is_legal,
    is_rule_complete,
    is_subargument_complete,
    to_dot,
)
from .dsl import parse_rational, parse_theory, serialize_theory
from .errors import ArglabError, CapExceededError, DistributionError, TheoryParseError
from .frames import (
    PAG,
    PEF,
    PGF,
    PLF,
    PTF,
    Distribution,
    SublabellingWeights,
    extension_probability,
    pag_to_pgf,
    pef_from_plf,
    pgf_from_plf,
    pgf_from_ptf,
    plf_from_pef,
    plf_from_pgf,
    plf_with_semantics,
    ptf_independent,
)
from .marginals import (
    PropertyReport,
    StatementLabel,
    StatementScheme,
    argument_label_probability,
    check_properties,
    joint_probability,
    justification_from_plf,
    statement_label,
    statement_label_probability,
    statement_marginal,
)
from .semantics import (
    LabellingSpec,
    OnOffCriterion,
    Semantics,
    grounded_labelling,
    labellings,
    subgraph_labellings,
)

__version__ = "0.1.0"
