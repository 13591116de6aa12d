# hand-written: devectorized paddb around loads whose index register holds key data
    mov rsp, 0x208000
    mov r15, 0x100000
    mov rbx, qword [r15]
    and rbx, 0x38
    mov rcx, 0x1
    mov rdx, 0x2
    mov rsi, 0x3
    mov rdi, 0x4
    mov rbp, 0x5
    paddb xmm0, xmm1
    mov rax, qword [r15 + rbx*1]
    mov rax, qword [r15 + rbx*1]
    paddb xmm0, xmm1
    hlt
