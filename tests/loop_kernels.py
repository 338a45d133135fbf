"""Scalar-loop reference for the drift kernels in ``spt_lab._kernels``.

One plain-Python loop per state-dependent kind, stepping one path and one
stock at a time.  ``tests/test_markets.py`` runs them behind the kernel
interface and checks that the vectorised kernels reproduce them.
"""

import numpy as np


def repelled_leader_loops(logx0, dv, dt, g, delta, big_m, q_floor, step_cap):
    B, K, n = dv.shape
    out = np.empty((B, K + 1, n))
    caps = np.zeros(B, np.int64)
    log_barrier = np.log(1.0 - delta)
    for b in range(B):
        for i in range(n):
            out[b, 0, i] = logx0[i]
        for k in range(K):
            lead = 0
            mx = out[b, k, 0]
            for i in range(1, n):
                if out[b, k, i] > mx:
                    mx = out[b, k, i]
                    lead = i
            s = 0.0
            for i in range(n):
                s += np.exp(out[b, k, i] - mx)
            # s = 1/mu_lead, so this is log((1-delta)/mu_lead)
            q = log_barrier + np.log(s)
            if q < q_floor:
                q = q_floor
            for i in range(n):
                if i == lead:
                    gam = -(big_m / delta) / q
                else:
                    gam = g[i]
                disp = gam * dt[k]
                if disp > step_cap:
                    disp = step_cap
                    caps[b] += 1
                elif disp < -step_cap:
                    disp = -step_cap
                    caps[b] += 1
                out[b, k + 1, i] = out[b, k, i] + disp + dv[b, k, i]
    return out, caps


def spread_reversion_loops(logx0, dv, dt, times, alpha, switch_time, a_half):
    B, K, _ = dv.shape
    out = np.empty((B, K + 1, 2))
    for b in range(B):
        out[b, 0, 0] = logx0[0]
        out[b, 0, 1] = logx0[1]
        for k in range(K):
            z = out[b, k, 1] - out[b, k, 0]
            b2 = -alpha * z if times[k] >= switch_time else 0.0
            out[b, k + 1, 0] = out[b, k, 0] - a_half * dt[k] + dv[b, k, 0]
            out[b, k + 1, 1] = out[b, k, 1] + (b2 - a_half) * dt[k] + dv[b, k, 1]
    return out


def patched_trigger_loops(
    logx0, dv, dt, times, g, delta, big_m, q_floor, step_cap, a_diag, eta, half_t
):
    B, K, n = dv.shape
    out = np.empty((B, K + 1, n))
    caps = np.zeros(B, np.int64)
    s_time = np.full(B, np.inf)
    log_barrier = np.log(1.0 - delta)
    trigger = 1.0 / (1.0 - eta)  # mu_max >= 1-eta  <=>  sum exp(logx-mx) <= this
    for b in range(B):
        for i in range(n):
            out[b, 0, i] = logx0[i]
        for k in range(K):
            lead = 0
            mx = out[b, k, 0]
            for i in range(1, n):
                if out[b, k, i] > mx:
                    mx = out[b, k, i]
                    lead = i
            s = 0.0
            for i in range(n):
                s += np.exp(out[b, k, i] - mx)
            if s_time[b] == np.inf and s <= trigger:
                s_time[b] = times[k]
            active = s_time[b] <= half_t and times[k] >= s_time[b]
            q = log_barrier + np.log(s)
            if q < q_floor:
                q = q_floor
            for i in range(n):
                if active:
                    if i == lead:
                        gam = -(big_m / delta) / q
                    else:
                        gam = g[i]
                else:
                    gam = -0.5 * a_diag[i]
                disp = gam * dt[k]
                if disp > step_cap:
                    disp = step_cap
                    caps[b] += 1
                elif disp < -step_cap:
                    disp = -step_cap
                    caps[b] += 1
                out[b, k + 1, i] = out[b, k, i] + disp + dv[b, k, i]
    return out, caps, s_time


def upstart_loops(logx0, dv, dt, times, alpha, eta, eta_prime, cdrift, step_cap):
    B, K, _ = dv.shape
    out = np.empty((B, K + 1, 2))
    t1_idx = np.full(B, -1, np.int64)
    caps = np.zeros(B, np.int64)
    margin = 1e-9 * eta
    for b in range(B):
        out[b, 0, 0] = logx0[0]
        out[b, 0, 1] = logx0[1]
        confined = False
        for k in range(K):
            y = out[b, k, 1] - out[b, k, 0]
            if not confined and (y >= eta_prime or y <= -eta_prime):
                confined = True
                t1_idx[b] = k
            if confined:
                yc = y
                if yc > eta - margin:
                    yc = eta - margin
                elif yc < -eta + margin:
                    yc = -eta + margin
                dgam = cdrift * (1.0 / (eta + yc) - 1.0 / (eta - yc)) * dt[k]
                if dgam > step_cap:
                    dgam = step_cap
                    caps[b] += 1
                elif dgam < -step_cap:
                    dgam = -step_cap
                    caps[b] += 1
            else:
                # exact integral of the power drift over the step
                dgam = times[k + 1] ** alpha - times[k] ** alpha
            out[b, k + 1, 0] = out[b, k, 0] + dv[b, k, 0]
            out[b, k + 1, 1] = out[b, k, 1] + dgam + dv[b, k, 1]
    return out, t1_idx, caps
