"""A kernel and command-line checker for a calculus of constructions
extended with user-declared rewrite rules at the object and predicate
level: type checking, confluence and termination evidence, positivity
and inductive-structure checks, and a strong-normalization verdict."""

from .admissibility import (AdmissibilityReport, Outcome, OverallVerdict,
                            check_admissible, check_type_preservation,
                            system_properties)
from .cic import (GeneratedBundle, InductiveDecl, generate_iota_rules,
                  selim_for_motive, translate_inductive)
from .orderings import Orientation, rpo_greater
from .positivity import (PredicateClass, check_inductive_structure,
                         predicate_classes)
from .printer import pp
from .rewriting import (ConfluenceLevel, ConfluenceVerdict, CriticalPair,
                        RewriteRule, RuleSet, confluence_check, critical_pairs,
                        joinable, match_first_order, normalize, step, unify)
from .schema import (AccPair, ClosureChecker, SchemaVerdict, acc_step,
                     args_greater, cc_check, check_well_formed,
                     satisfies_general_schema)
from .signature import (InductiveStructure, Precedence, Signature,
                        SymbolDecl)
from .syntax import LoadedFile, ParseError, load, parse
from .terms import (Abs, App, BOX, BVar, CacError, Environment, FuelExhausted,
                    Position, Prod, Sort, SortT, STAR, Substitution, Symb,
                    Term, Var, Variable, arrow, free_vars, is_algebraic,
                    lam, pi, replace_at, subst_apply)
from .typing import TypeChecker, TypingDerivation, TypingError, replay

__version__ = "1.0.0"
