; field_listener.s — field_2500 listener (perfbench/README.md): keep
; the radio in receive and consume every delivered word.

    .equ EV_RX, 3
    .equ CMD_RX, 0x8001
boot:
    li   r1, EV_RX
    la   r2, on_rx
    setaddr r1, r2
    li   r15, CMD_RX
    done
on_rx:
    mov  r3, r15
    done
