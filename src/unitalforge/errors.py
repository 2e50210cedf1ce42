"""Exception hierarchy for unitalforge.

Every check failure carries enough context (a witness) to reproduce it;
the message is the human-readable form, attributes hold the raw data.
"""


class UnitalForgeError(Exception):
    """Base class for all unitalforge errors."""


class UsageError(UnitalForgeError, ValueError):
    """Malformed input: a spec string, a missing or unreadable file, a file
    that is not in the unital format.  The command line exits 2 on it."""


# The most trials a sampled check takes.  Its arrays grow with the trials:
# the largest, `plane verify`, peaks at 195 MB (q = 3) and 250 MB (q = 125)
# with 10^6 trials, and a count past int64 could not size them at all.
MAX_TRIALS = 10 ** 6


def require_trials(trials: int) -> None:
    """A sampled check of fewer than one trial would pass having checked
    nothing, and one of more than MAX_TRIALS would size arrays past memory;
    either is a UsageError, raised before anything is drawn."""
    if trials < 1:
        raise UsageError(f"sampled mode needs at least 1 trial, got {trials}")
    if trials > MAX_TRIALS:
        raise UsageError(f"sampled mode takes at most {MAX_TRIALS} trials, got {trials}")


def require_mode(mode: str, allowed) -> None:
    """A misspelt mode would silently run some other check; it is a
    UsageError."""
    if mode not in allowed:
        raise UsageError(f"mode must be one of {', '.join(allowed)}, got {mode!r}")


def require_index(value, size: int, what: str) -> int:
    """value as an int in [0, size), else a UsageError (numpy would wrap a
    negative index into another element)."""
    value = int(value)
    if not 0 <= value < size:
        raise UsageError(f"{what} {value} is not in [0, {size})")
    return value


# --- field construction / arithmetic ---

class NotPrime(UnitalForgeError):
    pass


class EvenCharacteristic(UnitalForgeError):
    pass


class NotIrreducible(UnitalForgeError):
    pass


class DivisionByZero(UnitalForgeError):
    pass


class DegenerateForm(UnitalForgeError):
    """Quadratic form with vanishing discriminant."""


# --- planar function catalog ---

class SpecConstraintViolated(UnitalForgeError):
    """A planar-function family was instantiated outside its parameter range."""


class NotPlanar(UnitalForgeError):
    """A spec has a shift whose difference map is no bijection."""


# --- plane geometry ---

class EqualPoints(UnitalForgeError):
    pass


class AxiomViolation(UnitalForgeError):
    """Projective-plane axiom failed; carries the smallest-ID witness pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FamilyMismatch(UnitalForgeError):
    """Collineation family not defined for this plane's function family."""


# --- unital construction / certification ---

class ZeroTheta(UnitalForgeError):
    pass


class HypothesisFailed(UnitalForgeError):
    """The fiber-count hypothesis for the parabolic point set does not hold."""


class NotInjective(UnitalForgeError):
    pass


class CountViolation(UnitalForgeError):
    def __init__(self, a, b, count):
        super().__init__(f"solution count {count} not in {{1, q+1}} at (a={a}, b={b})")
        self.a, self.b, self.count = a, b, count


class IntersectionViolation(UnitalForgeError):
    def __init__(self, line_id, count):
        super().__init__(f"line {line_id} meets the point set in {count} points")
        self.line_id, self.count = line_id, count


class PairCoverageViolation(UnitalForgeError):
    def __init__(self, pair, count):
        super().__init__(f"point pair {pair} covered by {count} blocks")
        self.pair, self.count = pair, count


class NotNormal(UnitalForgeError):
    pass


class SwitchMismatch(UnitalForgeError):
    """Dual switch image differs from the original point set."""


class InvalidPointSet(UnitalForgeError):
    """Point IDs that repeat, fall outside the plane, or miss the count q^3 + 1."""


class ProvenanceMismatch(UnitalForgeError):
    """A unital's points differ from the parabolic set its theta names."""


# --- polarity ---

class ConditionAFailed(UnitalForgeError):
    """Involution is not of order two."""


class ConditionBFailed(UnitalForgeError):
    """Involution does not commute with the plane's function."""


class ConditionCFailed(UnitalForgeError):
    """Fiber count of y + conj(y) = f(x + conj(x)) is not q for every x."""


class NotPolarity(UnitalForgeError):
    pass


# --- analysis ---

class ZeroBeta(UnitalForgeError):
    pass


class SingularSystem(UnitalForgeError):
    """Trace bilinear system is singular (cannot happen for a valid split)."""


class HypothesisUnmet(UnitalForgeError):
    """Explicit-construction theorem hypotheses not satisfied by this plane."""


class WitnessCheckFailed(UnitalForgeError):
    """Explicit construction produced no parameter choice passing verification."""


class ElementDoesNotFix(UnitalForgeError):
    """A subgroup element expected to stabilize the unital moved it."""


class CompositionLawFailed(UnitalForgeError):
    """The shear-translation composition law failed: a generator's map after
    another shear's map differs from their composite's map at a point."""
