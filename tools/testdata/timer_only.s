; timer_only.s — two periodic timers counting through dbgout.
;
; Uses only the timer coprocessor and dbgout: no r15 traffic and no
; rand, so the run depends on nothing but the core and its timers.
; The single-machine pins in tools/CMakeLists.txt run it.

    .equ EV_T0,   0
    .equ EV_T1,   1
    .equ PERIOD0, 1500      ; timer ticks (~1.5 ms)
    .equ PERIOD1, 4000

boot:
    li   r1, EV_T0
    la   r2, on_t0
    setaddr r1, r2
    li   r1, EV_T1
    la   r2, on_t1
    setaddr r1, r2
    li   r4, 0
    li   r5, 0
    li   r1, 0
    li   r2, PERIOD0
    schedlo r1, r2
    li   r1, 1
    li   r2, PERIOD1
    schedlo r1, r2
    done

on_t0:
    inc  r4
    dbgout r4
    li   r1, 0
    li   r2, PERIOD0
    schedlo r1, r2
    done

on_t1:
    addi r5, 100
    dbgout r5
    li   r1, 1
    li   r2, PERIOD1
    schedlo r1, r2
    done
