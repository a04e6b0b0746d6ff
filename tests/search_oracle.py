"""The feasibility search's former float routines, kept as test oracles.

``reference_margins`` is the forward pass the search ran before its split
weights were laid out flat: group softmaxes kept in dicts, then one margin
per circuit slot, looked up by exponent.  ``central_difference_gradient``
is the gradient that drove its Adam steps before the analytic one: two
evaluations of the smoothed maximum per free weight.
"""

import math


def _softmax_slice(theta, offset, size):
    if size == 1:
        return [1.0], offset
    logits = [0.0] + [theta[offset + i] for i in range(size - 1)]
    peak = max(logits)
    exps = [math.exp(min(v - peak, 50.0)) for v in logits]
    total = sum(exps)
    return [v / total for v in exps], offset + size - 1


def reference_margins(f, slots, mu_groups, nu_groups, theta):
    """Each slot's margin ``nu * |f_beta| - theta`` at the logits ``theta``."""
    mu_float, nu_float = {}, {}
    offset = 0
    for key, members in mu_groups.items():
        mu_float[key], offset = _softmax_slice(theta, offset, len(members))
    for key, members in nu_groups.items():
        nu_float[key], offset = _softmax_slice(theta, offset, len(members))
    values = []
    for index, slot in enumerate(slots):
        nu = nu_float[slot.beta][nu_groups[slot.beta].index(index)]
        log_theta = 0.0
        for alpha, lam in zip(slot.simplex.vertices, slot.simplex.barycentric):
            mu = max(mu_float[alpha][mu_groups[alpha].index(index)], 1e-300)
            constant = math.log(float(f.terms[alpha])) - math.log(float(lam))
            log_theta += float(lam) * (math.log(mu) + constant)
        values.append(nu * float(slot.abs_inner) - math.exp(log_theta))
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
