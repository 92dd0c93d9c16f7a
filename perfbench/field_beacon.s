; field_beacon.s — field_2500 beacon (perfbench/README.md): listen,
; then transmit a counter word from an LFSR-staggered first slot and
; every 9-11 ms (10 ms on average) after it. The seed decides every
; beacon's phase; a fresh draw each period means which beacons collide
; changes from period to period, so a run's work does not hang on one
; seed's draw.

    .equ EV_T0, 0
    .equ EV_TXRDY, 6
    .equ CMD_RX, 0x8001
    .equ CMD_TX, 0x8002
boot:
    li   r1, EV_T0
    la   r2, on_t0
    setaddr r1, r2
    li   r1, EV_TXRDY
    la   r2, on_txrdy
    setaddr r1, r2
    li   r15, CMD_RX
    rand r3
    andi r3, 0x1fff
    addi r3, 100
    li   r1, 0
    schedlo r1, r3
    done
on_t0:
    li   r15, CMD_TX
    mov  r15, r4
    addi r4, 1
    rand r2
    andi r2, 0x7ff
    addi r2, 8976
    li   r1, 0
    schedlo r1, r2
    done
on_txrdy:
    li   r15, CMD_RX
    done
