"""Declarative update semantics for active database rules.

Active rules request insertions (+a) and deletions (-a) of base facts.  This
package rewrites such programs into standard Datalog with negation, computes
partial stable model families over three-valued databases, and applies the
derived updates under a choice of deterministic and non-deterministic
semantics.
"""

from .model import (AdlogError, Atom, BuiltinLiteral, ConsistencyError,
                    Constant, Database, DeltaSet, EngineError, Interpretation,
                    ParseError, Polarity, PreconditionError, Program,
                    ResourceLimitError, Rule, SchemaError, StdLiteral,
                    TruthValue, UniverseError, UpdateAtom, UpdateProgram,
                    UpdLiteral, ValidationError, Variable, info_leq,
                    rename_constants, validate_program,
                    validate_update_program)
from .parse import (parse_database, parse_delta, parse_interpretation,
                    parse_program, render)
from .rewrite import GroundProgram, embed_database, ground, rewrite_bm, rewrite_st
from .stable import (DEFAULT_ENUMERATION_CAP, ModelFamily, ModelRecord,
                     enumerate_pstable, is_pstable, max_deterministic,
                     well_founded)
from .update import (CompareResult, RunReport, Semantics, UpdateOutcome,
                     apply_delta, apply_updates, compare, extract_updates,
                     is_total_transformation, run)

__version__ = "0.1.0"
