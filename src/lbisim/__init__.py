"""Behavioural equivalences for reactive systems, made concrete.

Three calculi — CCS, asynchronous CCS and communication-free mobile
ambients — share one term language, one structural-congruence engine and
one contextual ("borrowed-context") transition system.  On top of those
sit the equivalence games: strong and asynchronous bisimilarity, IPO and
semi-saturated bisimilarity, and the parametric L-bisimilarity that
interpolates between them.
"""
from .congruence import (CanonicalForm, canonical_label, canonical_node,
                         canonical_term, canonicalize, equiv, node_key)
from .corpus import (CheckOutcome, axiom_closure, bounded_closure,
                     congruent_shuffle, enumerate_terms, random_term,
                     run_suite, term_pairs)
from .equivalence import (ALL, BUILTIN_LABEL_SETS, DEFAULT_MAX_PAIRS, EMPTY,
                          LA, LCCS, LM, RELATIONS, CapturingReport,
                          GameResult, LabelSet, WitnessMove, check,
                          is_capturing, pattern_label_set, pred,
                          pred_targets, verify_witness)
from .errors import (CrossCalculusError, DivergenceBudgetExceededError,
                     IncompleteSubstitutionError, LbisimError,
                     MalformedTermError, MAUnsupportedError, ParseError)
from .lts import (ItsTransition, OrdinaryTransition, instantiate,
                  its_transitions, lts_to_dot, lts_to_json,
                  ordinary_transitions, reachable)
from .reduction import ReductionStep, barbs, reduct_terms, reducts
from .syntax import parse_label, parse_term, print_label, print_term
from .terms import (Amb, Calculus, Cap, Hole, Label, Msg, NameVar, Nil, Node,
                    Par, Prefix, ProcVar, Recv, Restrict, Send, Substitution,
                    Sum, Tau, Term, apply_subst, close_label, free_names,
                    fresh_name, make_label, plug)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
