"""Workbench for value-passing CCS for trees: canonical processes on
location graphs, reduction and multi-labelled transition semantics, and
weak bisimilarity checking on finite-state instances."""

from .values import Atom, Pair, eval_expr, eval_bexpr
from .syntax import (
    Canon, Cond, Const, DefEnv, GraphTerm, IDLE, Input, NIL, NotCanonical,
    Output, PSym, Restrict, Sum, check_canonical, compose, oplus, par, sort_of,
    subst_value, term_str,
)
from .graphs import LocGraph, canonical_key, graph_subst, make_graph, oplus_graph
from .netstate import NetState, barb_signature, cs_head, flatten, has_barb
from .reduction import internal_steps, reachable, reduces_to_idle
from .llts import (
    Action, Multiset, TAU, diamond_check, multi_transitions,
    tau_closure, visible_steps, weak_transitions,
)
from .equivalence import (
    GameConfig, compose_states, distinguishing_context, stratified_bisim,
    weak_barbed_bisim, weak_bisim,
)
from .encodings import (
    SigmaTree, TreeAutomaton, abp_system, automaton_to_process, recognizes,
    tree_automaton, tree_to_process, vccs_compose,
)

__version__ = "0.1.0"
