"""Workbench for the synchronous and asynchronous pi-calculus, the Boudol
and Honda-Tokoro encodings between them, and bounded checkers for the
semantic equivalences and correspondence criteria that compare them."""

from .congruence import congruent, normalize
from .encodings import (Boudol, Context, EncodingScheme, HondaTokoro, Op,
                        encode, encoding_context, fill, fresh_pair,
                        scheme_from_string)
from .equivalences import (AWBB, EWB, SRWRB, WAB, WBB, WCB, WOT, RelationKind,
                           Verdict, audit_relation, check_bisim, relate,
                           saturate)
from .correspondence import (CheckReport, Criterion, check_completeness,
                             check_compositionality, check_lemma,
                             check_name_invariance, check_soundness,
                             check_success_sensitiveness, inert_closure,
                             inert_steps)
from .harness import (CheckSpec, GenConfig, Limits, SuiteReport,
                      generate_corpus, run_suite)
from .observables import Barb, strong_barbs, weak_barbs
from .semantics import (BoundOutput, Diverges, FreeOutput, InputLab, Label,
                        LtsFragment, Tau, build_fragment, diverges,
                        reduce_once, render_label)
from .syntax import (NIL, OK, Hole, Input, Name, Nil, Output, Par, Process,
                     Repl, Restrict, Success, alpha_eq, alpha_normalize,
                     is_async, names, size, substitute, substitute_all)
from .text import ParseError, parse_term, render_term

__all__ = [name for name in dir() if not name.startswith("_")]
