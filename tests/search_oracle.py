"""The feasibility search's former float routines, kept as test oracles.

``reference_margins`` is the forward pass the search ran before its split
weights were laid out flat: group weights kept in dicts built from the
support partition, then one margin per circuit slot, looked up by
exponent.  ``central_difference_gradient`` differentiates the smoothed
maximum of the margins numerically in the split weights, two evaluations
per weight.  ``adam_optimize`` is the optimiser the search ran before
mirror descent: Adam on group softmaxes with the first logit of each group
pinned at 0, from four seeded starts; ``softmax_weights`` and
``softmax_gradient`` are its layout and its gradient.
``reference_optimize`` is the mirror descent as it ran before each step
computed the smoothed maximum once: the gradient, the level and every
backtracking trial each evaluate it afresh.  Its sums are left folds, as
builtin ``sum`` of floats was before Python 3.12.
"""

import math
import random

from sonckit import certify
from sonckit.forms import grlex_key


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


def reference_margins(f, partition, weights):
    """Each slot's margin ``nu * |f_beta| - theta`` at the flat split
    ``weights``: square groups, then inner groups, in graded-lex order."""
    slots, mu_groups, nu_groups = _groups(partition)
    mu_float, nu_float = {}, {}
    offset = 0
    for split, groups in ((mu_float, mu_groups), (nu_float, nu_groups)):
        for key, members in groups.items():
            split[key] = weights[offset : offset + len(members)]
            offset += len(members)
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


def smooth(problem, weights, tau):
    """The smoothed maximum ``peak + tau * log sum exp((v - peak) / tau)``."""
    values, _ = problem.margins(weights)
    peak = max(values)
    return peak + tau * math.log(sum(math.exp((v - peak) / tau) for v in values))


def central_difference_gradient(problem, weights, tau, step=1e-6):
    """Central differences in each weight, with a step of ``step`` times
    the weight (times 1e-300 for a zero weight), so that a weight below the
    search's 1e-300 clamp stays below it on both sides."""
    weights = list(weights)
    gradient = []
    for i, weight in enumerate(weights):
        h = step * max(weight, 1e-300)
        weights[i] = weight + h
        upper = smooth(problem, weights, tau)
        weights[i] = weight - h
        lower = smooth(problem, weights, tau)
        weights[i] = weight
        gradient.append((upper - lower) / (2 * h))
    return gradient


def _offsets(problem):
    """``(theta offset, first weight, size)`` per group: a group of size s
    reads s - 1 logits from theta."""
    offsets, offset = [], 0
    for first, size in problem.groups:
        offsets.append((offset, first, size))
        offset += size - 1
    return offsets


def softmax_weights(problem, theta):
    """The group softmaxes of ``theta``, each group's first logit pinned at
    0, flat."""
    weights = [1.0] * problem.weight_count
    for offset, first, size in _offsets(problem):
        if size > 1:
            logits = [0.0, *theta[offset : offset + size - 1]]
            peak = max(logits)
            exps = [math.exp(v - peak) for v in logits]
            total = sum(exps)
            weights[first : first + size] = [v / total for v in exps]
    return weights


def softmax_gradient(problem, weights, values, thresholds, tau):
    """Gradient in theta: the weight-space gradient through each group's
    softmax Jacobian."""
    upstream = problem.gradient(
        weights, values, thresholds, tau, certify._smoothed_max(values, tau)
    )
    gradient = [0.0] * problem.size
    for offset, first, size in _offsets(problem):
        if size > 1:
            probs = weights[first : first + size]
            grads = upstream[first : first + size]
            mean = sum(p * g for p, g in zip(probs, grads))
            for b in range(1, size):
                gradient[offset + b - 1] = probs[b] * (grads[b] - mean)
    return gradient


def adam_optimize(problem):
    """Best hard margin found and the split weights that reach it."""
    size = problem.size
    scale = max(abs_inner for _, abs_inner, _ in problem.slots)
    starts = 4
    per_start = 100_000 // starts
    taus = [0.3 * scale, 0.03 * scale, 0.003 * scale, 0.0003 * scale]
    phase = 300

    best_margin = math.inf
    best_weights = softmax_weights(problem, [0.0] * size)
    for start in range(starts):
        rng = random.Random(1000 + start)
        theta = [rng.uniform(-1.0, 1.0) for _ in range(size)]
        moment = [0.0] * size
        velocity = [0.0] * size
        since_improvement = 0
        weights = softmax_weights(problem, theta)
        values, thresholds = problem.margins(weights)
        for iteration in range(per_start):
            tau = taus[min(iteration // phase, len(taus) - 1)]
            gradient = softmax_gradient(problem, weights, values, thresholds, tau)
            for i in range(size):
                moment[i] = 0.9 * moment[i] + 0.1 * gradient[i]
                velocity[i] = 0.999 * velocity[i] + 0.001 * gradient[i] ** 2
                theta[i] -= 0.1 * moment[i] / (math.sqrt(velocity[i]) + 1e-12)
            weights = softmax_weights(problem, theta)
            values, thresholds = problem.margins(weights)
            current = max(values)
            if current < best_margin - 1e-12 * max(1.0, scale):
                best_margin = current
                best_weights = weights
                since_improvement = 0
            else:
                since_improvement += 1
            if best_margin <= 1e-10:
                return best_margin, best_weights
            # Allow one smoothing-phase change before giving up on a start.
            if since_improvement > phase + 60:
                break
    return best_margin, best_weights


def _left_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def _smoothed_max(values, tau):
    peak = max(values)
    return peak + tau * math.log(_left_sum(math.exp((v - peak) / tau) for v in values))


def _weights(problem, logits):
    weights = [1.0] * problem.weight_count
    for first, size in problem.groups:
        if size > 1:
            group = logits[first : first + size]
            peak = max(group)
            exps = [math.exp(v - peak) for v in group]
            total = _left_sum(exps)
            weights[first : first + size] = [v / total for v in exps]
    return weights


def _margins(problem, weights):
    values, thresholds = [], []
    for nu_index, abs_inner, terms in problem.slots:
        log_theta = 0.0
        for mu_index, lam, constant in terms:
            log_theta += lam * (math.log(max(weights[mu_index], 1e-300)) + constant)
        threshold = math.exp(log_theta)
        values.append(weights[nu_index] * abs_inner - threshold)
        thresholds.append(threshold)
    return values, thresholds


def _gradient(problem, weights, values, thresholds, tau):
    smoothed = _smoothed_max(values, tau)
    upstream = [0.0] * problem.weight_count
    for (nu_index, abs_inner, terms), v, threshold in zip(problem.slots, values, thresholds):
        share = math.exp((v - smoothed) / tau)
        upstream[nu_index] += share * abs_inner
        for mu_index, lam, _ in terms:
            mu = weights[mu_index]
            if mu > 1e-300:
                upstream[mu_index] -= share * threshold * lam / mu
    return upstream


def reference_optimize(problem):
    """Best hard margin found and the split weights that reach it."""
    taus = (0.3, 0.03, 0.003, 0.0003)
    phase_steps = 300
    scale = max(abs_inner for _, abs_inner, _ in problem.slots)
    last_phase = len(taus) - 1
    logits = [0.0] * problem.weight_count
    weights = _weights(problem, logits)
    values, thresholds = _margins(problem, weights)
    best_margin, best_weights = max(values), weights
    step = 3 * taus[0] / scale
    stalled = 0
    for iteration in range(25_000):
        if best_margin <= 1e-10 or stalled >= phase_steps + 60:
            break
        phase = min(iteration // phase_steps, last_phase)
        tau = taus[phase] * scale
        gradient = _gradient(problem, weights, values, thresholds, tau)
        level = _smoothed_max(values, tau)
        while True:
            trial = [v - step * g for v, g in zip(logits, gradient)]
            weights = _weights(problem, trial)
            values, thresholds = _margins(problem, weights)
            smoothed = _smoothed_max(values, tau)
            if smoothed <= level or not step:
                break
            step /= 2
        logits = trial
        step *= 2 if smoothed < level else 1
        current = max(values)
        progress = current < best_margin - 1e-7 * max(1.0, scale)
        stalled = 0 if phase < last_phase or progress else stalled + 1
        if current < best_margin:
            best_margin, best_weights = current, weights
    return best_margin, best_weights
