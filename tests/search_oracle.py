"""The feasibility search's former float routines, kept as test oracles.

``reference_margins`` is the forward pass the search ran before its split
weights were laid out flat: group softmaxes kept in dicts built from the
support partition, then one margin per circuit slot, looked up by
exponent.  ``central_difference_gradient`` is the gradient that drove its
Adam steps before the analytic one: two evaluations of the smoothed
maximum per free weight.
"""

import math

from sonckit.forms import grlex_key


def _softmax_slice(theta, offset, size):
    if size == 1:
        return [1.0], offset
    logits = [0.0] + [theta[offset + i] for i in range(size - 1)]
    peak = max(logits)
    exps = [math.exp(min(v - peak, 50.0)) for v in logits]
    total = sum(exps)
    return [v / total for v in exps], offset + size - 1


def _groups(partition):
    """The slots as ``(beta, simplex)`` pairs and the slot indices of each
    square group and each inner group, in the search's order."""
    slots, nu_groups = [], {}
    for beta in sorted(partition.i_set, key=grlex_key):
        family = partition.simplex_families[beta]
        nu_groups[beta] = list(range(len(slots), len(slots) + len(family)))
        slots.extend((beta, simplex) for simplex in family)
    mu_groups = {
        alpha: [index for index, (_, simplex) in enumerate(slots) if alpha in simplex.vertices]
        for alpha in sorted(partition.s_set - partition.r_set, key=grlex_key)
    }
    return slots, mu_groups, nu_groups


def reference_margins(f, partition, theta):
    """Each slot's margin ``nu * |f_beta| - theta`` at the logits ``theta``."""
    slots, mu_groups, nu_groups = _groups(partition)
    mu_float, nu_float = {}, {}
    offset = 0
    for key, members in mu_groups.items():
        mu_float[key], offset = _softmax_slice(theta, offset, len(members))
    for key, members in nu_groups.items():
        nu_float[key], offset = _softmax_slice(theta, offset, len(members))
    values = []
    for index, (beta, simplex) in enumerate(slots):
        nu = nu_float[beta][nu_groups[beta].index(index)]
        log_theta = 0.0
        for alpha, lam in zip(simplex.vertices, simplex.barycentric):
            mu = max(mu_float[alpha][mu_groups[alpha].index(index)], 1e-300)
            constant = math.log(float(f.terms[alpha])) - math.log(float(lam))
            log_theta += float(lam) * (math.log(mu) + constant)
        values.append(nu * float(abs(f.terms[beta])) - math.exp(log_theta))
    return values


def smooth(problem, theta, tau):
    """The smoothed maximum ``peak + tau * log sum exp((v - peak) / tau)``."""
    values, _ = problem.margins(problem.weights(theta))
    peak = max(values)
    return peak + tau * math.log(sum(math.exp((v - peak) / tau) for v in values))


def central_difference_gradient(problem, theta, tau, step=1e-6):
    theta = list(theta)
    gradient = []
    for i in range(len(theta)):
        theta[i] += step
        upper = smooth(problem, theta, tau)
        theta[i] -= 2 * step
        lower = smooth(problem, theta, tau)
        theta[i] += step
        gradient.append((upper - lower) / (2 * step))
    return gradient
