; halts.s — three Timer0 wakeups, each counted through dbgout, then
; `halt`. The halting pin in tools/CMakeLists.txt runs it on two
; nodes.

    .equ EV_T0,  0
    .equ PERIOD, 700        ; timer ticks

boot:
    li   r1, EV_T0
    la   r2, on_t0
    setaddr r1, r2
    li   r4, 0
    li   r1, 0
    li   r2, PERIOD
    schedlo r1, r2
    done

on_t0:
    inc  r4
    dbgout r4
    mov  r3, r4
    subi r3, 3
    bltz r3, again
    halt
again:
    li   r1, 0
    li   r2, PERIOD
    schedlo r1, r2
    done
